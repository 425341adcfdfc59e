package core

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The JSONL trace's bytes are exactly what encoding/json writes for the
// line structs the format was defined with; jsonl_ref_test.go keeps that
// reference codec and tests this one against it. ARCHITECTURE.md ("The
// trace codec") states the contract:
//
//   - record keys are the Go field names, in struct declaration order,
//     except that a session's StartupMS comes last (where encoding/json
//     put the reference's shadowing field) and is null when NaN;
//   - floats use encoding/json's shortest form; NaN and ±Inf are errors
//     in every other field;
//   - strings use encoding/json's HTML-safe escaping.
//
// The reader accepts what encoding/json's decoder accepts for those
// structs, restricted to one object per line: keys in any order, matched
// exactly and then case-insensitively; unknown keys skipped; null leaves
// a field as it is (StartupMS: NaN).

// WriteJSONL streams the dataset as JSON lines: one {"session": ...} or
// {"chunk": ...} object per line, sessions first. The format is the
// trace-exchange format between cmd/vodsim and cmd/analyze.
func WriteJSONL(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	var line []byte
	var err error
	for i := range d.Sessions {
		if line, err = appendRecordLine(line[:0], `{"session":{`, &d.Sessions[i], sessionFields); err == nil {
			_, err = bw.Write(line)
		}
		if err != nil {
			return fmt.Errorf("core: write session: %w", err)
		}
	}
	for i := range d.Chunks {
		if line, err = appendRecordLine(line[:0], `{"chunk":{`, &d.Chunks[i], chunkFields); err == nil {
			_, err = bw.Write(line)
		}
		if err != nil {
			return fmt.Errorf("core: write chunk: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL loads a dataset written by WriteJSONL. It streams the input
// through a bounded buffer; a line may be of any length. Blank lines are
// skipped, and errors name the line.
func ReadJSONL(r io.Reader) (*Dataset, error) {
	var recs traceRecords
	br := bufio.NewReaderSize(r, 64<<10)
	dec := lineDecoder{strs: make(map[string]string)}
	var long []byte // a line longer than br's buffer
	for n := 1; ; n++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("core: read trace: line %d: %w", n, err)
		}
		if derr := dec.line(&recs, line); derr != nil {
			return nil, fmt.Errorf("core: read trace: line %d: %w", n, derr)
		}
		if err == io.EOF {
			break
		}
	}
	d := &Dataset{Sessions: recs.sessions.slice(), Chunks: recs.chunks.slice()}
	d.Index()
	return d, nil
}

// traceRecords gathers the records ReadJSONL decodes.
type traceRecords struct {
	sessions blocks[SessionRecord]
	chunks   blocks[ChunkRecord]
}

// recordBlock is how many records a blocks gathers per allocation.
const recordBlock = 1024

// blocks gathers records of unknown count in fixed-size blocks, then
// copies them once into a slice of exact length. Growing one slice by
// append instead copies every record again at each regrowth and
// allocates several times the records' size for a large trace.
type blocks[T any] struct {
	full [][]T // filled blocks, in order
	cur  []T   // the block being filled
}

func (b *blocks[T]) add(v T) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.full = append(b.full, b.cur)
		}
		b.cur = make([]T, 0, recordBlock)
	}
	b.cur = append(b.cur, v)
}

// slice returns every record added, in order, in a slice whose length
// and capacity are the record count; nil if there is none.
func (b *blocks[T]) slice() []T {
	n := len(b.cur)
	for _, f := range b.full {
		n += len(f)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, f := range b.full {
		out = append(out, f...)
	}
	return append(out, b.cur...)
}

// field is one key of a record object on the wire: its name, and how to
// encode (append) or decode the value it names in a record of type R.
type field[R any] struct {
	name   string
	key    string // `"name":`
	encode func(b []byte, r *R) ([]byte, error)
	decode func(d *lineDecoder, r *R) error
}

func newField[R any](name string, enc func([]byte, *R) ([]byte, error), dec func(*lineDecoder, *R) error) field[R] {
	return field[R]{name: name, key: `"` + name + `":`, encode: enc, decode: dec}
}

func uint64Field[R any](name string, p func(*R) *uint64) field[R] {
	return newField(name,
		func(b []byte, r *R) ([]byte, error) { return strconv.AppendUint(b, *p(r), 10), nil },
		func(d *lineDecoder, r *R) error { return d.uint64(p(r)) })
}

func intField[R any](name string, p func(*R) *int) field[R] {
	return newField(name,
		func(b []byte, r *R) ([]byte, error) { return strconv.AppendInt(b, int64(*p(r)), 10), nil },
		func(d *lineDecoder, r *R) error { return d.int(p(r)) })
}

func int64Field[R any](name string, p func(*R) *int64) field[R] {
	return newField(name,
		func(b []byte, r *R) ([]byte, error) { return strconv.AppendInt(b, *p(r), 10), nil },
		func(d *lineDecoder, r *R) error { return d.int64(p(r)) })
}

func boolField[R any](name string, p func(*R) *bool) field[R] {
	return newField(name,
		func(b []byte, r *R) ([]byte, error) { return strconv.AppendBool(b, *p(r)), nil },
		func(d *lineDecoder, r *R) error { return d.bool(p(r)) })
}

func floatField[R any](name string, p func(*R) *float64) field[R] {
	return newField(name,
		func(b []byte, r *R) ([]byte, error) { return appendFloat(b, *p(r)) },
		func(d *lineDecoder, r *R) error { return d.float(p(r), false) })
}

// nullFloatField is a float whose NaN travels as null: StartupMS, NaN for
// sessions that never started playback.
func nullFloatField[R any](name string, p func(*R) *float64) field[R] {
	return newField(name,
		func(b []byte, r *R) ([]byte, error) {
			v := *p(r)
			if math.IsNaN(v) {
				return append(b, "null"...), nil
			}
			return appendFloat(b, v)
		},
		func(d *lineDecoder, r *R) error { return d.float(p(r), true) })
}

// stringField decodes into fresh strings, or with intern set, into
// strings shared across the read: for fields that repeat across records.
func stringField[R any](name string, intern bool, p func(*R) *string) field[R] {
	return newField(name,
		func(b []byte, r *R) ([]byte, error) { return appendString(b, *p(r)), nil },
		func(d *lineDecoder, r *R) error { return d.string(p(r), intern) })
}

// chunkFields is ChunkRecord's wire schema, in declaration order.
var chunkFields = []field[ChunkRecord]{
	uint64Field("SessionID", func(c *ChunkRecord) *uint64 { return &c.SessionID }),
	intField("ChunkID", func(c *ChunkRecord) *int { return &c.ChunkID }),
	floatField("DFBms", func(c *ChunkRecord) *float64 { return &c.DFBms }),
	floatField("DLBms", func(c *ChunkRecord) *float64 { return &c.DLBms }),
	intField("BitrateKbps", func(c *ChunkRecord) *int { return &c.BitrateKbps }),
	int64Field("SizeBytes", func(c *ChunkRecord) *int64 { return &c.SizeBytes }),
	floatField("DurationSec", func(c *ChunkRecord) *float64 { return &c.DurationSec }),
	intField("BufCount", func(c *ChunkRecord) *int { return &c.BufCount }),
	floatField("BufDurMS", func(c *ChunkRecord) *float64 { return &c.BufDurMS }),
	boolField("Visible", func(c *ChunkRecord) *bool { return &c.Visible }),
	floatField("AvgFPS", func(c *ChunkRecord) *float64 { return &c.AvgFPS }),
	intField("DroppedFrames", func(c *ChunkRecord) *int { return &c.DroppedFrames }),
	intField("TotalFrames", func(c *ChunkRecord) *int { return &c.TotalFrames }),
	boolField("HardwareRender", func(c *ChunkRecord) *bool { return &c.HardwareRender }),
	floatField("DwaitMS", func(c *ChunkRecord) *float64 { return &c.DwaitMS }),
	floatField("DopenMS", func(c *ChunkRecord) *float64 { return &c.DopenMS }),
	floatField("DreadMS", func(c *ChunkRecord) *float64 { return &c.DreadMS }),
	floatField("DBEms", func(c *ChunkRecord) *float64 { return &c.DBEms }),
	boolField("CacheHit", func(c *ChunkRecord) *bool { return &c.CacheHit }),
	stringField("CacheLevel", true, func(c *ChunkRecord) *string { return &c.CacheLevel }),
	boolField("RetryTimer", func(c *ChunkRecord) *bool { return &c.RetryTimer }),
	intField("CWND", func(c *ChunkRecord) *int { return &c.CWND }),
	floatField("SRTTms", func(c *ChunkRecord) *float64 { return &c.SRTTms }),
	floatField("SRTTVarMS", func(c *ChunkRecord) *float64 { return &c.SRTTVarMS }),
	intField("MSS", func(c *ChunkRecord) *int { return &c.MSS }),
	intField("RetxTotal", func(c *ChunkRecord) *int { return &c.RetxTotal }),
	intField("SegsSent", func(c *ChunkRecord) *int { return &c.SegsSent }),
	intField("SegsLost", func(c *ChunkRecord) *int { return &c.SegsLost }),
	intField("ProxyCohort", func(c *ChunkRecord) *int { return &c.ProxyCohort }),
	floatField("TruthDDSms", func(c *ChunkRecord) *float64 { return &c.TruthDDSms }),
	boolField("TruthTransient", func(c *ChunkRecord) *bool { return &c.TruthTransient }),
}

// sessionFields is SessionRecord's wire schema: declaration order, with
// StartupMS moved to the end.
var sessionFields = []field[SessionRecord]{
	uint64Field("SessionID", func(s *SessionRecord) *uint64 { return &s.SessionID }),
	stringField("HTTPClientIP", false, func(s *SessionRecord) *string { return &s.HTTPClientIP }),
	stringField("BeaconIP", false, func(s *SessionRecord) *string { return &s.BeaconIP }),
	stringField("UserAgent", true, func(s *SessionRecord) *string { return &s.UserAgent }),
	stringField("OS", true, func(s *SessionRecord) *string { return &s.OS }),
	stringField("Browser", true, func(s *SessionRecord) *string { return &s.Browser }),
	boolField("PopularBrowser", func(s *SessionRecord) *bool { return &s.PopularBrowser }),
	intField("VideoID", func(s *SessionRecord) *int { return &s.VideoID }),
	intField("VideoRank", func(s *SessionRecord) *int { return &s.VideoRank }),
	floatField("VideoLenSec", func(s *SessionRecord) *float64 { return &s.VideoLenSec }),
	intField("NumChunks", func(s *SessionRecord) *int { return &s.NumChunks }),
	intField("PrefixID", func(s *SessionRecord) *int { return &s.PrefixID }),
	stringField("Prefix", true, func(s *SessionRecord) *string { return &s.Prefix }),
	stringField("Country", true, func(s *SessionRecord) *string { return &s.Country }),
	boolField("US", func(s *SessionRecord) *bool { return &s.US }),
	intField("PoP", func(s *SessionRecord) *int { return &s.PoP }),
	intField("ServerID", func(s *SessionRecord) *int { return &s.ServerID }),
	stringField("OrgName", true, func(s *SessionRecord) *string { return &s.OrgName }),
	stringField("OrgType", true, func(s *SessionRecord) *string { return &s.OrgType }),
	stringField("ConnType", true, func(s *SessionRecord) *string { return &s.ConnType }),
	floatField("DistanceKM", func(s *SessionRecord) *float64 { return &s.DistanceKM }),
	floatField("ArrivalMS", func(s *SessionRecord) *float64 { return &s.ArrivalMS }),
	intField("RebufCount", func(s *SessionRecord) *int { return &s.RebufCount }),
	floatField("RebufDurMS", func(s *SessionRecord) *float64 { return &s.RebufDurMS }),
	floatField("RebufferRate", func(s *SessionRecord) *float64 { return &s.RebufferRate }),
	floatField("AvgBitrateKbps", func(s *SessionRecord) *float64 { return &s.AvgBitrateKbps }),
	floatField("PlayedSec", func(s *SessionRecord) *float64 { return &s.PlayedSec }),
	floatField("SRTTMinMS", func(s *SessionRecord) *float64 { return &s.SRTTMinMS }),
	floatField("SRTTMeanMS", func(s *SessionRecord) *float64 { return &s.SRTTMeanMS }),
	floatField("SRTTStdMS", func(s *SessionRecord) *float64 { return &s.SRTTStdMS }),
	floatField("SRTTCV", func(s *SessionRecord) *float64 { return &s.SRTTCV }),
	floatField("RetxRate", func(s *SessionRecord) *float64 { return &s.RetxRate }),
	boolField("HadLoss", func(s *SessionRecord) *bool { return &s.HadLoss }),
	boolField("GPU", func(s *SessionRecord) *bool { return &s.GPU }),
	intField("CPUCores", func(s *SessionRecord) *int { return &s.CPUCores }),
	floatField("CPULoad", func(s *SessionRecord) *float64 { return &s.CPULoad }),
	boolField("Live", func(s *SessionRecord) *bool { return &s.Live }),
	intField("LiveChannel", func(s *SessionRecord) *int { return &s.LiveChannel }),
	intField("LiveJoinChunk", func(s *SessionRecord) *int { return &s.LiveJoinChunk }),
	intField("LiveSwitches", func(s *SessionRecord) *int { return &s.LiveSwitches }),
	floatField("LiveEdgeLagMS", func(s *SessionRecord) *float64 { return &s.LiveEdgeLagMS }),
	boolField("Proxied", func(s *SessionRecord) *bool { return &s.Proxied }),
	intField("ProxyCohort", func(s *SessionRecord) *int { return &s.ProxyCohort }),
	nullFloatField("StartupMS", func(s *SessionRecord) *float64 { return &s.StartupMS }),
}

// appendRecordLine appends one trace line: open, r's fields, and the
// closing braces and newline.
func appendRecordLine[R any](b []byte, open string, r *R, fields []field[R]) ([]byte, error) {
	b = append(b, open...)
	for i := range fields {
		f := &fields[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, f.key...)
		var err error
		if b, err = f.encode(b, r); err != nil {
			return b, fmt.Errorf("field %s: %w", f.name, err)
		}
	}
	return append(b, "}}\n"...), nil
}

// appendFloat appends v the way encoding/json writes a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21 on,
// with a single-digit negative exponent unpadded.
func appendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b, fmt.Errorf("unsupported value %v", v)
	}
	// A third of a trace's floats are integers (zero, durations, frame
	// rates). Below 2^53 their shortest form is their digits, which
	// AppendInt writes an order of magnitude faster. -0 keeps its sign.
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 && (v != 0 || !math.Signbit(v)) {
		return strconv.AppendInt(b, int64(v), 10), nil
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped the way encoding/json
// escapes with HTML escaping on: quote, backslash and control bytes, <, >
// and &, U+2028 and U+2029, and U+FFFD for each byte of invalid UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// maxDepth bounds the nesting of a skipped value. encoding/json's limit
// is 10000, so every line this reader accepts, encoding/json accepts.
const maxDepth = 512

// lineDecoder parses trace lines. b[i:] is the unread rest of the line.
type lineDecoder struct {
	b       []byte
	i       int
	strs    map[string]string // interned string values
	scratch []byte            // unescaped string
	rec     traceLine         // reused across lines
}

// traceLine is the object on one line. A repeated key decodes into the
// same record, as encoding/json decodes into the pointer it already
// allocated; null drops it. A line holding both records keeps the session.
type traceLine struct {
	session                SessionRecord
	chunk                  ChunkRecord
	haveSession, haveChunk bool
}

// lineFields is traceLine's schema, for decoding only.
var lineFields = []field[traceLine]{
	newField("session", nil, func(d *lineDecoder, l *traceLine) (err error) {
		l.haveSession, err = decodeRecord(d, &l.session, sessionFields)
		return err
	}),
	newField("chunk", nil, func(d *lineDecoder, l *traceLine) (err error) {
		l.haveChunk, err = decodeRecord(d, &l.chunk, chunkFields)
		return err
	}),
}

var errEOL = errors.New("unexpected end of line")

// line decodes one trace line and adds its record to recs.
func (dec *lineDecoder) line(recs *traceRecords, line []byte) error {
	dec.b, dec.i = line, 0
	dec.skipSpace()
	if dec.i == len(dec.b) {
		return nil
	}
	l := &dec.rec
	*l = traceLine{}
	if _, err := decodeRecord(dec, l, lineFields); err != nil {
		return err
	}
	dec.skipSpace()
	if dec.i != len(dec.b) {
		return dec.syntax("after the object")
	}
	switch {
	case l.haveSession:
		recs.sessions.add(l.session)
	case l.haveChunk:
		recs.chunks.add(l.chunk)
	}
	return nil
}

// decodeRecord decodes a record object into r, over what r holds, or null,
// which zeroes r. It reports whether r now holds a record.
func decodeRecord[R any](d *lineDecoder, r *R, fields []field[R]) (bool, error) {
	if d.peek() == 'n' {
		var zero R
		*r = zero
		return false, d.literal("null")
	}
	if err := d.expect('{'); err != nil {
		return false, err
	}
	d.skipSpace()
	if d.consume('}') {
		return true, nil
	}
	next := 0
	for {
		// Keys usually arrive in schema order, spelled as the writer
		// spells them: match those bytes first.
		i := -1
		if next < len(fields) {
			if k := fields[next].key; len(d.b)-d.i >= len(k) && string(d.b[d.i:d.i+len(k)]) == k {
				d.i += len(k)
				d.skipSpace()
				i = next
			}
		}
		if i < 0 {
			key, err := d.key()
			if err != nil {
				return true, err
			}
			i = lookupField(fields, key)
		}
		if i >= 0 {
			if err := fields[i].decode(d, r); err != nil {
				return true, fmt.Errorf("%s: %w", fields[i].name, err)
			}
			next = i + 1
		} else if err := d.skip(3); err != nil {
			return true, err
		}
		if done, err := d.next(); err != nil || done {
			return true, err
		}
	}
}

// lookupField returns the index of the field key names, or -1: exact
// matches first, then case-insensitive ones, as encoding/json does.
func lookupField[R any](fields []field[R], key []byte) int {
	for i := range fields {
		if string(key) == fields[i].name {
			return i
		}
	}
	for i := range fields {
		if bytes.EqualFold(key, []byte(fields[i].name)) {
			return i
		}
	}
	return -1
}

func (d *lineDecoder) skipSpace() {
	for d.i < len(d.b) && d.b[d.i] <= ' ' {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the line.
func (d *lineDecoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *lineDecoder) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *lineDecoder) expect(c byte) error {
	if !d.consume(c) {
		return d.syntax(fmt.Sprintf("looking for %q", c))
	}
	return nil
}

// syntax reports an unexpected byte (or the end of the line) at d.i.
func (d *lineDecoder) syntax(context string) error {
	if d.i >= len(d.b) {
		return errEOL
	}
	return fmt.Errorf("invalid character %q at column %d %s", d.b[d.i], d.i+1, context)
}

// next consumes the separator after an object member: done is true after
// the closing brace.
func (d *lineDecoder) next() (done bool, err error) {
	d.skipSpace()
	if d.consume(',') {
		d.skipSpace()
		return false, nil
	}
	if d.consume('}') {
		return true, nil
	}
	return false, d.syntax("after object member")
}

// key reads an object key and the colon after it.
func (d *lineDecoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax("looking for a key")
	}
	key, err := d.str()
	if err != nil {
		return nil, err
	}
	d.skipSpace()
	if err := d.expect(':'); err != nil {
		return nil, err
	}
	d.skipSpace()
	return key, nil
}

// literal consumes the literal word lit.
func (d *lineDecoder) literal(lit string) error {
	if end := d.i + len(lit); end > len(d.b) || string(d.b[d.i:end]) != lit {
		return d.syntax("in literal")
	}
	d.i += len(lit)
	return nil
}

// str reads the string at d.i (an opening quote) and returns its unescaped
// bytes, valid until the next call.
func (d *lineDecoder) str() ([]byte, error) {
	start := d.i + 1
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			d.i = j + 1
			return d.b[start:j], nil
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return d.unescape(start)
		}
	}
	return nil, errEOL
}

// unescape is str's slow path, encoding/json's unquoting: escapes are
// decoded, a lone or misordered UTF-16 surrogate escape becomes U+FFFD,
// and so does each byte of invalid UTF-8.
func (d *lineDecoder) unescape(start int) ([]byte, error) {
	out := d.scratch[:0]
	b := d.b
	for j := start; j < len(b); {
		c := b[j]
		switch {
		case c == '"':
			d.i = j + 1
			d.scratch = out
			return out, nil
		case c == '\\':
			if j+1 >= len(b) {
				return nil, errEOL
			}
			switch e := b[j+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(b[j+2:])
				if r < 0 {
					d.i = j
					return nil, d.syntax("in \\u escape")
				}
				j += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if j+1 < len(b) && b[j] == '\\' && b[j+1] == 'u' {
						r2 = hex4(b[j+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						r = dec
						j += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.i = j + 1
				return nil, d.syntax("in string escape")
			}
			j += 2
		case c < 0x20:
			d.i = j
			return nil, d.syntax("in string literal")
		case c < utf8.RuneSelf:
			out = append(out, c)
			j++
		default:
			r, size := utf8.DecodeRune(b[j:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, r)
			} else {
				out = append(out, b[j:j+size]...)
			}
			j += size
		}
	}
	return nil, errEOL
}

// hex4 decodes four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// number reads a number, checked against JSON's grammar (strconv alone
// would also take "+1", "01", "Inf" and "0x1p3"), and returns its text.
func (d *lineDecoder) number() ([]byte, error) {
	b, start, j := d.b, d.i, d.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	if j < len(b) && b[j] == '0' {
		j++
	} else if k := skipDigits(b, j); k > j {
		j = k
	} else {
		d.i = j
		return nil, d.syntax("in numeric literal")
	}
	if j < len(b) && b[j] == '.' {
		k := skipDigits(b, j+1)
		if k == j+1 {
			d.i = k
			return nil, d.syntax("after decimal point in numeric literal")
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := skipDigits(b, j)
		if k == j {
			d.i = k
			return nil, d.syntax("in exponent of numeric literal")
		}
		j = k
	}
	d.i = j
	return b[start:j], nil
}

// skipDigits returns the index of the first non-digit in b at or after j.
func skipDigits(b []byte, j int) int {
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	return j
}

// isNumberStart reports whether c can begin a JSON number.
func isNumberStart(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

func (d *lineDecoder) float(p *float64, nullIsNaN bool) error {
	switch c := d.peek(); {
	case c == 'n':
		if err := d.literal("null"); err != nil || !nullIsNaN {
			return err
		}
		*p = math.NaN()
		return nil
	case isNumberStart(c):
		s, err := d.number()
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			return fmt.Errorf("number %s out of range", s)
		}
		*p = v
		return nil
	}
	return d.syntax("looking for a number")
}

// integer reads an integer field's value: the number's text, or nil for
// null.
func (d *lineDecoder) integer() ([]byte, error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, d.literal("null")
	case isNumberStart(c):
		return d.number()
	}
	return nil, d.syntax("looking for an integer")
}

// notInteger reports a number an integer field cannot hold: a fraction,
// an exponent, or one out of range.
func notInteger(s []byte) error { return fmt.Errorf("number %s is not an integer in range", s) }

func (d *lineDecoder) int(p *int) error {
	v, ok, err := d.signed(strconv.IntSize)
	if ok {
		*p = int(v)
	}
	return err
}

func (d *lineDecoder) int64(p *int64) error {
	v, ok, err := d.signed(64)
	if ok {
		*p = v
	}
	return err
}

// signed reads a signed integer field's value of the given size; ok is
// false for null.
func (d *lineDecoder) signed(bits int) (v int64, ok bool, err error) {
	s, err := d.integer()
	if s == nil || err != nil {
		return 0, false, err
	}
	digits := s
	if s[0] == '-' {
		digits = s[1:]
	}
	if u, small := smallUint(digits); small && bits == 64 {
		if v = int64(u); s[0] == '-' {
			v = -v
		}
		return v, true, nil
	}
	if v, err = strconv.ParseInt(string(s), 10, bits); err != nil {
		return 0, false, notInteger(s)
	}
	return v, true, nil
}

func (d *lineDecoder) uint64(p *uint64) error {
	s, err := d.integer()
	if s == nil || err != nil {
		return err
	}
	v, small := smallUint(s)
	if !small {
		if v, err = strconv.ParseUint(string(s), 10, 64); err != nil {
			return notInteger(s)
		}
	}
	*p = v
	return nil
}

// smallUint returns the value of s when s is a run of at most 18 digits,
// which cannot overflow an int64; other numbers take the strconv path.
func smallUint(s []byte) (v uint64, ok bool) {
	if len(s) == 0 || len(s) > 18 {
		return 0, false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

func (d *lineDecoder) bool(p *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't', 'f':
		v := d.peek() == 't'
		lit := "false"
		if v {
			lit = "true"
		}
		if err := d.literal(lit); err != nil {
			return err
		}
		*p = v
		return nil
	}
	return d.syntax("looking for a boolean")
}

func (d *lineDecoder) string(p *string, intern bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		if !intern {
			*p = string(s)
		} else if v, ok := d.strs[string(s)]; ok {
			*p = v
		} else {
			v := string(s)
			d.strs[v] = v
			*p = v
		}
		return nil
	}
	return d.syntax("looking for a string")
}

// skip reads and discards one value of any type, at nesting depth depth.
func (d *lineDecoder) skip(depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("value nested deeper than %d at column %d", maxDepth, d.i+1)
	}
	switch c := d.peek(); {
	case c == '{' || c == '[':
		d.i++
		d.skipSpace()
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		if d.consume(end) {
			return nil
		}
		for {
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			d.skipSpace()
			if d.consume(end) {
				return nil
			}
			if !d.consume(',') {
				return d.syntax("after a member")
			}
			d.skipSpace()
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case isNumberStart(c):
		_, err := d.number()
		return err
	}
	return d.syntax("looking for a value")
}

// WriteChunksCSV exports the chunk table for external tooling
// (spreadsheets, pandas). Ground-truth columns are intentionally omitted.
func WriteChunksCSV(w io.Writer, chunks []ChunkRecord) error {
	cw := csv.NewWriter(w)
	header := []string{
		"session_id", "chunk_id", "dfb_ms", "dlb_ms", "bitrate_kbps",
		"size_bytes", "duration_sec", "dwait_ms", "dopen_ms", "dread_ms",
		"dbe_ms", "cache_hit", "cache_level", "retry_timer",
		"cwnd", "srtt_ms", "srttvar_ms", "mss", "retx_total",
		"segs_sent", "segs_lost", "buf_count", "buf_dur_ms",
		"visible", "avg_fps", "dropped_frames", "total_frames", "hw_render",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range chunks {
		c := &chunks[i]
		rec := []string{
			strconv.FormatUint(c.SessionID, 10),
			strconv.Itoa(c.ChunkID),
			f(c.DFBms), f(c.DLBms),
			strconv.Itoa(c.BitrateKbps),
			strconv.FormatInt(c.SizeBytes, 10),
			f(c.DurationSec),
			f(c.DwaitMS), f(c.DopenMS), f(c.DreadMS), f(c.DBEms),
			b(c.CacheHit), c.CacheLevel, b(c.RetryTimer),
			strconv.Itoa(c.CWND), f(c.SRTTms), f(c.SRTTVarMS),
			strconv.Itoa(c.MSS), strconv.Itoa(c.RetxTotal),
			strconv.Itoa(c.SegsSent), strconv.Itoa(c.SegsLost),
			strconv.Itoa(c.BufCount), f(c.BufDurMS),
			b(c.Visible), f(c.AvgFPS),
			strconv.Itoa(c.DroppedFrames), strconv.Itoa(c.TotalFrames),
			b(c.HardwareRender),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// sessionsCSVHeader is the column order shared by WriteSessionsCSV and
// ReadSessionsCSV.
var sessionsCSVHeader = []string{
	"session_id", "user_agent", "os", "browser", "video_id", "video_rank",
	"video_len_sec", "num_chunks", "prefix", "country", "us", "pop",
	"server_id", "org_name", "org_type", "conn_type", "distance_km",
	"startup_ms", "rebuf_count", "rebuf_dur_ms", "rebuffer_rate",
	"avg_bitrate_kbps", "played_sec", "srtt_min_ms", "srtt_mean_ms",
	"srtt_std_ms", "srtt_cv", "retx_rate", "had_loss",
	"gpu", "cpu_cores", "cpu_load",
}

// WriteSessionsCSV exports the session table. Sessions that never started
// playback carry StartupMS = NaN; they serialize as an empty startup_ms
// field, matching the JSONL sink's null.
func WriteSessionsCSV(w io.Writer, sessions []SessionRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(sessionsCSVHeader); err != nil {
		return err
	}
	for i := range sessions {
		s := &sessions[i]
		rec := []string{
			strconv.FormatUint(s.SessionID, 10),
			s.UserAgent, s.OS, s.Browser,
			strconv.Itoa(s.VideoID), strconv.Itoa(s.VideoRank),
			f(s.VideoLenSec), strconv.Itoa(s.NumChunks),
			s.Prefix, s.Country, b(s.US), strconv.Itoa(s.PoP),
			strconv.Itoa(s.ServerID), s.OrgName, s.OrgType, s.ConnType,
			f(s.DistanceKM), fOrEmpty(s.StartupMS),
			strconv.Itoa(s.RebufCount), f(s.RebufDurMS), f(s.RebufferRate),
			f(s.AvgBitrateKbps), f(s.PlayedSec),
			f(s.SRTTMinMS), f(s.SRTTMeanMS), f(s.SRTTStdMS), f(s.SRTTCV),
			f(s.RetxRate), b(s.HadLoss),
			b(s.GPU), strconv.Itoa(s.CPUCores), f(s.CPULoad),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSessionsCSV loads a session table written by WriteSessionsCSV. An
// empty startup_ms field reads back as NaN, so write → read → write is
// byte-identical. Fields the CSV omits (beacon IPs, prefix ID, proxy flag)
// are zero in the returned records.
func ReadSessionsCSV(r io.Reader) ([]SessionRecord, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("core: read sessions CSV header: %w", err)
	}
	if len(header) != len(sessionsCSVHeader) {
		return nil, fmt.Errorf("core: sessions CSV has %d columns, want %d",
			len(header), len(sessionsCSVHeader))
	}
	for i, col := range sessionsCSVHeader {
		if header[i] != col {
			return nil, fmt.Errorf("core: sessions CSV column %d is %q, want %q", i, header[i], col)
		}
	}
	var out []SessionRecord
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: read sessions CSV: %w", err)
		}
		p := rowParser{row: row}
		s := SessionRecord{
			SessionID: p.uint64(), UserAgent: p.str(), OS: p.str(), Browser: p.str(),
			VideoID: p.int(), VideoRank: p.int(),
			VideoLenSec: p.float(), NumChunks: p.int(),
			Prefix: p.str(), Country: p.str(), US: p.bool(), PoP: p.int(),
			ServerID: p.int(), OrgName: p.str(), OrgType: p.str(), ConnType: p.str(),
			DistanceKM: p.float(), StartupMS: p.float(),
			RebufCount: p.int(), RebufDurMS: p.float(), RebufferRate: p.float(),
			AvgBitrateKbps: p.float(), PlayedSec: p.float(),
			SRTTMinMS: p.float(), SRTTMeanMS: p.float(), SRTTStdMS: p.float(),
			SRTTCV: p.float(), RetxRate: p.float(), HadLoss: p.bool(),
			GPU: p.bool(), CPUCores: p.int(), CPULoad: p.float(),
		}
		if p.err != nil {
			return nil, fmt.Errorf("core: sessions CSV line %d: %w", line, p.err)
		}
		out = append(out, s)
	}
	return out, nil
}

// rowParser consumes one CSV row field by field, latching the first error.
type rowParser struct {
	row []string
	i   int
	err error
}

func (p *rowParser) next() string {
	v := p.row[p.i]
	p.i++
	return v
}

// str rejects a field holding CR LF: encoding/csv writes it verbatim and
// reads it back as LF, so the record could not be written back as read.
func (p *rowParser) str() string {
	v := p.next()
	if strings.Contains(v, "\r\n") && p.err == nil {
		p.err = fmt.Errorf("field %d holds CR LF", p.i-1)
	}
	return v
}

func (p *rowParser) float() float64 {
	s := p.next()
	if s == "" {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil && p.err == nil {
		p.err = err
	}
	return v
}

func (p *rowParser) int() int {
	v, err := strconv.Atoi(p.next())
	if err != nil && p.err == nil {
		p.err = err
	}
	return v
}

func (p *rowParser) uint64() uint64 {
	v, err := strconv.ParseUint(p.next(), 10, 64)
	if err != nil && p.err == nil {
		p.err = err
	}
	return v
}

func (p *rowParser) bool() bool {
	switch p.next() {
	case "1":
		return true
	case "0":
		return false
	default:
		if p.err == nil {
			p.err = fmt.Errorf("bad boolean field %d", p.i-1)
		}
		return false
	}
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// fOrEmpty formats like f but writes NaN as an empty field, the CSV
// counterpart of the JSONL null for sessions that never started playback.
func fOrEmpty(v float64) string {
	if math.IsNaN(v) {
		return ""
	}
	return f(v)
}

func b(v bool) string {
	if v {
		return "1"
	}
	return "0"
}
