package contextmgr

import "unicode/utf8"

// decodeRecord is the replay fast path: a reflection-free decoder for the
// flat record shape the store's mutators log. It accepts only what it fully
// handles — a compact object whose keys are the exact lower-case names of
// record's flat fields, string values free of escapes and control bytes
// holding valid UTF-8, a plain integer seq, and nothing after the closing
// brace — and fills rec directly. Anything else (snapshot trees, null,
// whitespace, mixed-case or unknown keys, escapes, invalid UTF-8, a
// non-integer seq) returns false, and the caller decodes with
// encoding/json, which stays the semantic authority; FuzzRecordDecode holds
// the two to the same result on every input this path accepts.
//
// rec must be the zero record on entry; on false it may be partly filled.
func decodeRecord(data []byte, rec *record) bool {
	d := recordDecoder{b: data}
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return d.i == len(d.b)
	}
	for {
		key, ok := d.str()
		if !ok || !d.eat(':') {
			return false
		}
		switch string(key) {
		case "path":
			rec.Path, ok = d.strs()
		case "name":
			ok = d.strField(&rec.Name)
		case "value":
			ok = d.strField(&rec.Value)
		case "user":
			ok = d.strField(&rec.User)
		case "problem":
			ok = d.strField(&rec.Problem)
		case "session":
			ok = d.strField(&rec.Session)
		case "id":
			ok = d.strField(&rec.ID)
		case "data":
			ok = d.strField(&rec.Data)
		case "seq":
			rec.Seq, ok = d.int()
		case "at":
			// Hand time.Time the quoted literal, exactly as encoding/json
			// does, so a replayed timestamp is bit-identical either way.
			start := d.i
			if _, ok = d.str(); ok {
				ok = rec.At.UnmarshalJSON(d.b[start:d.i]) == nil
			}
		default:
			return false
		}
		if !ok {
			return false
		}
		if d.eat('}') {
			return d.i == len(d.b)
		}
		if !d.eat(',') {
			return false
		}
	}
}

// recordDecoder is a cursor over one encoded record.
type recordDecoder struct {
	b []byte
	i int
}

// eat consumes c if it is the next byte.
func (d *recordDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str consumes a string literal and returns its contents, which alias the
// input. Escapes, control bytes and invalid UTF-8 are refused: encoding/json
// rewrites them, so they are the fallback's to decode.
func (d *recordDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start, ascii := d.i, true
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			s := d.b[start:d.i]
			d.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// strField consumes a string literal into *dst.
func (d *recordDecoder) strField(dst *string) bool {
	s, ok := d.str()
	if ok {
		*dst = string(s)
	}
	return ok
}

// strs consumes an array of string literals into a new slice.
func (d *recordDecoder) strs() ([]string, bool) {
	if !d.eat('[') {
		return nil, false
	}
	var buf [4]string // a valid path is at most len(Levels) deep
	elems := buf[:0]
	if !d.eat(']') {
		for {
			s, ok := d.str()
			if !ok {
				return nil, false
			}
			elems = append(elems, string(s))
			if d.eat(']') {
				break
			}
			if !d.eat(',') {
				return nil, false
			}
		}
	}
	// Non-nil even when empty, as encoding/json decodes [].
	return append(make([]string, 0, len(elems)), elems...), true
}

// int consumes a JSON integer (no fraction or exponent) that fits in an
// int64.
func (d *recordDecoder) int() (int64, bool) {
	neg := d.eat('-')
	start := d.i
	var n uint64
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		if n > (1<<63)/10 {
			return 0, false
		}
		n = n*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	digits := d.i - start
	if digits == 0 || (digits > 1 && d.b[start] == '0') {
		return 0, false
	}
	if d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		return 0, false
	}
	if neg {
		if n > 1<<63 {
			return 0, false
		}
		return -int64(n), true
	}
	if n > 1<<63-1 {
		return 0, false
	}
	return int64(n), true
}
