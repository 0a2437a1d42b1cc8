package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// familyHelp is the curated # HELP text for the families the solver and
// daemon register. Families outside the map (tests, future metrics) get a
// kind-derived fallback so every exposed family still carries a HELP line.
var familyHelp = map[string]string{
	"discsp_cycles_total":        "Simulator cycles executed across runs.",
	"discsp_messages_total":      "Messages sent by agents.",
	"discsp_deliveries_total":    "Messages delivered to agents.",
	"discsp_checks_total":        "Consistency checks performed.",
	"discsp_cycle_messages":      "Messages delivered in the current cycle.",
	"discsp_cycle_max_checks":    "Largest per-agent check count in the current cycle.",
	"discsp_queue_depth":         "Messages waiting for delivery.",
	"discsp_store_nogoods":       "Nogoods resident in an agent's store.",
	"discsp_store_evictions":     "Nogoods evicted by the retention policy.",
	"discsp_learned_nogood_len":  "Sizes of learned nogoods.",
	"discsp_trials_total":        "Experiment trials started.",
	"discsp_trials_solved_total": "Experiment trials that found a solution.",
	"discsp_trial_cycles":        "Cycles to termination per trial.",
	"discsp_trial_maxcck":        "Max concurrent checks per trial.",

	"discsp_transport_retransmits_total":        "Frames retransmitted by the reliable transport.",
	"discsp_transport_dups_suppressed_total":    "Duplicate frames suppressed by receivers.",
	"discsp_transport_restarts_total":           "Agent crash-restarts survived.",
	"discsp_transport_partitioned_total":        "Network partitions injected.",
	"discsp_transport_partition_heals_total":    "Network partitions healed.",
	"discsp_transport_reconnects_total":         "Sockets re-established after a severed connection.",
	"discsp_transport_heartbeat_timeouts_total": "Links declared dead by heartbeat silence.",
	"discsp_transport_corrupt_frames_total":     "Frames rejected by the CRC trailer.",
	"discsp_transport_bytes_sent_total":         "Bytes written to sockets.",
	"discsp_transport_bytes_recv_total":         "Bytes read from sockets.",
	"discsp_transport_batched_frames_total":     "Data frames coalesced into batches.",

	"dcspd_jobs_accepted_total":         "Jobs durably accepted (journaled and acknowledged).",
	"dcspd_jobs_shed_total":             "Submissions shed by admission control.",
	"dcspd_jobs_completed_total":        "Jobs finished with a solver verdict.",
	"dcspd_jobs_failed_total":           "Jobs finished failed or timed out.",
	"dcspd_jobs_canceled_total":         "Jobs withdrawn by clients.",
	"dcspd_job_retries_total":           "Attempts retried after a worker crash.",
	"dcspd_jobs_replayed_total":         "Interrupted jobs re-enqueued by journal replay.",
	"dcspd_jobs_cached_total":           "Finished jobs restored from the journal without re-running.",
	"dcspd_jobs_deadline_expired_total": "Jobs whose deadline expired waiting in the queue.",
	"dcspd_jobs_done_total":             "Jobs finished, by tenant.",
	"dcspd_queue_depth":                 "Jobs waiting for a solver slot.",
	"dcspd_running":                     "Jobs occupying solver slots.",
	"dcspd_queue_oldest_age_us":         "Age of the oldest queued job in microseconds.",
	"dcspd_queue_wait_ms":               "Queue wait per job in milliseconds, by tenant.",
	"dcspd_job_run_ms":                  "Run time per job in milliseconds, by tenant.",
	"dcspd_journal_record_us":           "Job-log record time (encode, write and fsync) in microseconds.",
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4). Metric names carry labels inline in the registry
// (see Name); this writer splits them back apart so labeled series of one
// family share a single # HELP/# TYPE header pair, and merges the le label
// into any existing histogram labels. Output order follows the snapshot's
// sorted order and is therefore deterministic.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	typed := make(map[string]bool)
	emitType := func(family, kind string) error {
		if typed[family] {
			return nil
		}
		typed[family] = true
		help, ok := familyHelp[family]
		if !ok {
			help = "discsp " + kind + " metric."
		}
		// HELP text escapes backslash and newline (quotes are legal there).
		help = strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(help)
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, help); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, kind)
		return err
	}
	for _, c := range s.Counters {
		family, labels := splitName(c.Name)
		if err := emitType(family, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", family, labels, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		family, labels := splitName(g.Name)
		if err := emitType(family, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", family, labels, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		family, labels := splitName(h.Name)
		if err := emitType(family, "histogram"); err != nil {
			return err
		}
		cum := int64(0)
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			le := fmt.Sprintf("%d", bound)
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", family, mergeLabel(labels, "le", le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", family, mergeLabel(labels, "le", "+Inf"), h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", family, labels, h.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", family, labels, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// splitName separates a registry name into its family and the literal
// label block (including braces), e.g. `x{a="1"}` -> ("x", `{a="1"}`).
func splitName(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// mergeLabel appends key="value" to a literal label block, escaping the
// value per the exposition format (the block's existing values were escaped
// by Name at composition time).
func mergeLabel(labels, key, value string) string {
	value = EscapeLabelValue(value)
	if labels == "" {
		return fmt.Sprintf(`{%s="%s"}`, key, value)
	}
	return fmt.Sprintf(`%s,%s="%s"}`, strings.TrimSuffix(labels, "}"), key, value)
}
