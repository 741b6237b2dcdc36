package corpus

import (
	"strconv"
	"unicode/utf8"
)

// Append-form JSON encoders. Each appends to dst exactly the bytes
// encoding/json emits for the same value with HTML escaping on (what
// json.Marshal and json.Encoder do by default), so a reply assembled from
// them is byte-identical to one produced by reflection over the structs.
// The golden tests and FuzzAppendJSON hold them to that.

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal: quotes, backslash,
// control bytes, <, > and & are escaped, invalid UTF-8 becomes \ufffd, and
// U+2028/U+2029 are escaped for JSONP safety.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONStrings appends a []string as a JSON array; a nil slice is
// null, an empty one [].
func appendJSONStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, s)
	}
	return append(dst, ']')
}

// AppendJSON appends the ad as encoding/json would marshal it.
func (a *Ad) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"ID":`...)
	dst = strconv.AppendUint(dst, a.ID, 10)
	dst = append(dst, `,"Phrase":`...)
	dst = AppendJSONString(dst, a.Phrase)
	dst = append(dst, `,"Words":`...)
	dst = appendJSONStrings(dst, a.Words)
	dst = append(dst, `,"Meta":`...)
	dst = a.Meta.AppendJSON(dst)
	return append(dst, '}')
}

// AppendJSON appends the metadata as encoding/json would marshal it.
func (m *Meta) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"CampaignID":`...)
	dst = strconv.AppendUint(dst, uint64(m.CampaignID), 10)
	dst = append(dst, `,"BidMicros":`...)
	dst = strconv.AppendInt(dst, m.BidMicros, 10)
	dst = append(dst, `,"ClickRate":`...)
	dst = strconv.AppendUint(dst, uint64(m.ClickRate), 10)
	dst = append(dst, `,"Exclusions":`...)
	dst = appendJSONStrings(dst, m.Exclusions)
	return append(dst, '}')
}

// AppendAdsJSON appends ads as a JSON array; a nil slice is null, an empty
// one [].
func AppendAdsJSON(dst []byte, ads []Ad) []byte {
	if ads == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range ads {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = ads[i].AppendJSON(dst)
	}
	return append(dst, ']')
}
