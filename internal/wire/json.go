// Hand-rolled JSON encoding for Envelope and Batch. The output is
// byte-identical to encoding/json's for the same values (field order,
// omitempty behaviour, string escaping including the HTML escapes), which
// the tests pin — but it appends into a caller-owned buffer instead of
// allocating one per message, closing the per-frame allocation that made
// the old wire.Marshal the transport's hottest allocation site.
package wire

import (
	"strconv"
	"unicode/utf8"
)

func (e *Envelope) appendJSON(buf []byte) []byte {
	buf = append(buf, `{"type":`...)
	buf = appendJSONString(buf, e.Type)
	buf = append(buf, `,"from":`...)
	buf = strconv.AppendInt(buf, int64(e.From), 10)
	buf = append(buf, `,"to":`...)
	buf = strconv.AppendInt(buf, int64(e.To), 10)
	buf = appendIntField(buf, `,"value":`, int64(e.Value))
	buf = appendIntField(buf, `,"priority":`, int64(e.Priority))
	buf = appendIntField(buf, `,"improve":`, int64(e.Improve))
	buf = appendIntField(buf, `,"eval":`, int64(e.Eval))
	buf = appendLitsField(buf, `,"lits":`, e.Lits)
	buf = appendLitsField(buf, `,"values":`, e.Values)
	buf = appendIntField(buf, `,"seq":`, e.Seq)
	buf = appendIntField(buf, `,"ack":`, e.Ack)
	if e.Insoluble {
		buf = append(buf, `,"insoluble":true`...)
	}
	buf = appendIntField(buf, `,"processed":`, int64(e.Processed))
	if e.Codec != "" {
		buf = append(buf, `,"codec":`...)
		buf = appendJSONString(buf, e.Codec)
	}
	if e.Crc {
		buf = append(buf, `,"crc":true`...)
	}
	if e.Resume {
		buf = append(buf, `,"resume":true`...)
	}
	buf = appendIntField(buf, `,"tseq":`, e.TSeq)
	return append(buf, '}')
}

func appendInt(buf []byte, v int64) []byte { return strconv.AppendInt(buf, v, 10) }

func appendIntField(buf []byte, prefix string, v int64) []byte {
	if v == 0 {
		return buf
	}
	buf = append(buf, prefix...)
	return strconv.AppendInt(buf, v, 10)
}

func appendLitsField(buf []byte, prefix string, lits []Lit) []byte {
	if len(lits) == 0 {
		return buf
	}
	buf = append(buf, prefix...)
	buf = append(buf, '[')
	for i, l := range lits {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"var":`...)
		buf = strconv.AppendInt(buf, int64(l.Var), 10)
		buf = append(buf, `,"val":`...)
		buf = strconv.AppendInt(buf, int64(l.Val), 10)
		buf = append(buf, '}')
	}
	return append(buf, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with encoding/json's
// escaping rules: two-character escapes for quote, backslash, newline,
// carriage return, tab, backspace, and form feed (the \b and \f forms Go
// 1.24 standardized on); \u00xx for other control characters; the
// HTML-safe escapes for < > & and U+2028/U+2029; and \ufffd for invalid
// UTF-8. Wire type and codec names never trigger any of it, so the common
// path is one copy.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
