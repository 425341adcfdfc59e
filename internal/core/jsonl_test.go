package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Exported to the external test package, which builds datasets with the
// simulator.
var (
	RefWriteJSONL = refWriteJSONL
	EqualDatasets = equalDatasets
)

// schemaDataset sets every exported field of SessionRecord and
// ChunkRecord through reflect, so a field added to either struct reaches
// the codec tests without touching them: one record of distinct values,
// one record per bool field with only that field true, and one record per
// edge-case float and string with every field of that kind set to it.
func schemaDataset() *Dataset {
	edgeFloats := []float64{
		math.Copysign(0, -1), 5e-324, 1e-7, -1e-7, 9.99e20, 1e21, -1e21, math.MaxFloat64, 1e-6, 123456789.125,
		6, -12345, 1<<53 - 1, -(1<<53 - 1), 1 << 53, 1<<53 + 2, 1e20, 1<<63 + 1<<11,
	}
	edgeStrings := []string{
		"<a&b>", "line\u2028para\u2029end", "bad\xffutf8\xc3", "ctl\x00\x01\x1f\x7f\b\f\n\r\t",
		`"quoted" \back/slash`, "\u00fcn\u00efc\u00f6d\u00e9 \U0001F3AC", "",
		strings.Repeat("Mozilla/5.0 ", 1<<20/12),
	}
	d := &Dataset{}
	distinct := func(v reflect.Value, seq int) {
		for i := 0; i < v.NumField(); i++ {
			f, k := v.Field(i), seq*100+i+1
			switch f.Kind() {
			case reflect.Uint64:
				f.SetUint(uint64(k) * 1_000_003)
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(k) * -7919)
			case reflect.Float64:
				f.SetFloat(float64(k) + 1/float64(k+2))
			case reflect.String:
				f.SetString(fmt.Sprintf("%s-%d", v.Type().Field(i).Name, k))
			case reflect.Bool:
				f.SetBool(k%2 == 0)
			default:
				panic("schemaDataset: no value for field kind " + f.Kind().String())
			}
		}
	}
	variants := func(rec any) []reflect.Value {
		t := reflect.TypeOf(rec)
		var out []reflect.Value
		base := reflect.New(t).Elem()
		distinct(base, 0)
		out = append(out, base)
		set := func(kind reflect.Kind, assign func(f reflect.Value)) {
			v := reflect.New(t).Elem()
			distinct(v, len(out))
			for i := 0; i < v.NumField(); i++ {
				if v.Field(i).Kind() == kind {
					assign(v.Field(i))
				}
			}
			out = append(out, v)
		}
		for i := 0; i < t.NumField(); i++ {
			if t.Field(i).Type.Kind() == reflect.Bool {
				v := reflect.New(t).Elem()
				distinct(v, len(out))
				for j := 0; j < v.NumField(); j++ {
					if v.Field(j).Kind() == reflect.Bool {
						v.Field(j).SetBool(i == j)
					}
				}
				out = append(out, v)
			}
		}
		for _, x := range edgeFloats {
			set(reflect.Float64, func(f reflect.Value) { f.SetFloat(x) })
		}
		for _, s := range edgeStrings {
			set(reflect.String, func(f reflect.Value) { f.SetString(s) })
		}
		return out
	}
	for _, v := range variants(SessionRecord{}) {
		d.Sessions = append(d.Sessions, v.Interface().(SessionRecord))
	}
	for _, v := range variants(ChunkRecord{}) {
		d.Chunks = append(d.Chunks, v.Interface().(ChunkRecord))
	}
	never := d.Sessions[0]
	never.StartupMS = math.NaN()
	d.Sessions = append(d.Sessions, never)
	return d
}

// equalDatasets compares two datasets field by field. Floats must match
// bit for bit, except that any NaN equals any NaN.
func equalDatasets(a, b *Dataset) error {
	if len(a.Sessions) != len(b.Sessions) || len(a.Chunks) != len(b.Chunks) {
		return fmt.Errorf("sizes differ: %s vs %s", a, b)
	}
	for i := range a.Sessions {
		if err := equalRecords(reflect.ValueOf(a.Sessions[i]), reflect.ValueOf(b.Sessions[i])); err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
	}
	for i := range a.Chunks {
		if err := equalRecords(reflect.ValueOf(a.Chunks[i]), reflect.ValueOf(b.Chunks[i])); err != nil {
			return fmt.Errorf("chunk %d: %w", i, err)
		}
	}
	return nil
}

func equalRecords(a, b reflect.Value) error {
	for i := 0; i < a.NumField(); i++ {
		x, y := a.Field(i), b.Field(i)
		same := x.Equal(y)
		if x.Kind() == reflect.Float64 {
			fx, fy := x.Float(), y.Float()
			same = math.Float64bits(fx) == math.Float64bits(fy) || math.IsNaN(fx) && math.IsNaN(fy)
		}
		if !same {
			return fmt.Errorf("%s: %.80v vs %.80v", a.Type().Field(i).Name, x, y)
		}
	}
	return nil
}

// TestJSONLMatchesReference is the differential schema test: on every
// field of both record types and on edge-case floats and strings, the
// writer's bytes are the reference encoder's, and the reader's dataset is
// the reference decoder's.
func TestJSONLMatchesReference(t *testing.T) {
	ds := schemaDataset()
	var got, want bytes.Buffer
	if err := WriteJSONL(&got, ds); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if err := refWriteJSONL(&want, ds); err != nil {
		t.Fatalf("reference write: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("line %d differs:\n got %.400s\nwant %.400s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("writer output differs from the reference: %d vs %d lines", len(g), len(w))
	}
	read, err := ReadJSONL(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	ref, err := refReadJSONL(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatalf("reference read: %v", err)
	}
	if err := equalDatasets(read, ref); err != nil {
		t.Fatalf("reader differs from the reference: %v", err)
	}
}

// TestWriteJSONLRejectsNonFinite: NaN and ±Inf have no JSON form outside
// StartupMS, so the writer fails, as the reference does, and names the
// field.
func TestWriteJSONLRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := sampleChunk()
		c.DLBms = v
		s := sampleSession(1)
		s.SRTTCV = v
		s.StartupMS = math.Inf(1)
		for _, ds := range []*Dataset{{Chunks: []ChunkRecord{c}}, {Sessions: []SessionRecord{s}}} {
			var buf bytes.Buffer
			err := WriteJSONL(&buf, ds)
			if err == nil || refWriteJSONL(&bytes.Buffer{}, ds) == nil {
				t.Fatalf("%v: WriteJSONL error %v; the reference must fail too", v, err)
			}
			if !strings.Contains(err.Error(), "DLBms") && !strings.Contains(err.Error(), "SRTTCV") {
				t.Errorf("%v: error does not name the field: %v", v, err)
			}
			if buf.Len() != 0 {
				t.Errorf("%v: failed line was written: %q", v, buf.String())
			}
		}
	}
}

// TestReadJSONLInputs covers what the reader accepts beyond its own
// output, and what it rejects: every accepted input must decode as the
// reference does, every error must name its line.
func TestReadJSONLInputs(t *testing.T) {
	ok := []string{
		"",
		"\n \t\r\n\n",
		`{"chunk":{"CacheLevel":"disk","ChunkID":3,"SessionID":9}}`,
		`{"CHUNK":{"cachelevel":"ram","sessionid":2,"unknown":[1,{"a":null}],"ChunkId":-0}}`,
		"{\"\u017fession\":{\"StartupMS\":null,\"OS\":\"\\u0041\\ud83c\\udfac\\ud800x\\/\"}}",
		`{"session":{"OS":"a"},"session":{"Browser":"b"},"chunk":{"ChunkID":1}}`,
		`{"session":{"OS":"a"},"session":null,"chunk":{"ChunkID":1}}`,
		`{"session":{"OS":"a"},"session":null,"session":{"Browser":"b"}}`,
		`{"session":{"StartupMS":1e2,"SRTTCV":-0.0e-0,"OS":null,"US":null}}` + "\r\n" + `{}`,
		`{"session":{"SessionID":18446744073709551615,"startupMS":12.5,"StartupMs":7}}`,
		"null\n{\"session\":{\"OS\":\"a\"},\"chunk\":{},\"x\":{}}",
		// A retired field (preprocessing's old ProxySuspected flag) in an
		// older trace is skipped like any unknown key.
		`{"session":{"SessionID":4,"ProxySuspected":true,"OS":"a"}}`,
	}
	for _, in := range ok {
		got, err := ReadJSONL(strings.NewReader(in))
		if err != nil {
			t.Errorf("ReadJSONL(%q): %v", in, err)
			continue
		}
		want, err := refReadJSONL(strings.NewReader(in))
		if err != nil {
			t.Fatalf("reference rejects %q: %v", in, err)
		}
		if err := equalDatasets(got, want); err != nil {
			t.Errorf("ReadJSONL(%q) differs from the reference: %v", in, err)
		}
	}
	bad := []string{
		`{"chunk":{"ChunkID":1.5}}`,
		`{"chunk":{"ChunkID":1e2}}`,
		`{"chunk":{"SizeBytes":9223372036854775808}}`,
		`{"chunk":{"SessionID":-0}}`,
		`{"chunk":{"SessionID":-1}}`,
		`{"chunk":{"DFBms":1e400}}`,
		`{"chunk":{"DFBms":+1}}`,
		`{"chunk":{"DFBms":01}}`,
		`{"chunk":{"DFBms":Inf}}`,
		`{"chunk":{"DFBms":0x1p3}}`,
		`{"chunk":{"DFBms":1.}}`,
		`{"chunk":{"DFBms":"1"}}`,
		`{"chunk":{"CacheHit":1}}`,
		`{"chunk":{"CacheLevel":ram}}`,
		"{\"chunk\":{\"CacheLevel\":\"r\tm\"}}",
		`{"chunk":{"CacheLevel":"\x"}}`,
		`{"chunk":{"CacheLevel":"\u12"}}`,
		`{"session":{"StartupMS":"1"}}`,
		`{"session":{"StartupMS":[1]}}`,
		`{"session":5}`,
		`{"chunk":{"x":[1,]}}`,
		`{"chunk":{"x":tru}}`,
		`{"chunk":{"ChunkID":1}`,
		`{"chunk":{"ChunkID":1}}}`,
		`{"chunk":{"ChunkID":1}} {"chunk":{}}`,
		`{"chunk":{"ChunkID":1},}`,
		`{"chunk" {}}`,
		`{"chunk":{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}}`,
	}
	for _, in := range bad {
		_, err := ReadJSONL(strings.NewReader("\n" + in + "\n"))
		if err == nil {
			t.Errorf("ReadJSONL(%q) accepted", in)
		} else if !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("ReadJSONL(%q) error does not name line 2: %v", in, err)
		}
	}
}

// TestReadJSONLBlockBoundaries: ReadJSONL gathers records in blocks of
// recordBlock and returns them in order in slices of exact length, at
// zero records, exactly one block, and one block plus one record, of
// sessions and chunks alike; and the dataset writes back to the bytes
// it was read from.
func TestReadJSONLBlockBoundaries(t *testing.T) {
	for _, n := range []int{0, recordBlock, recordBlock + 1} {
		want := &Dataset{}
		for i := 0; i < n; i++ {
			want.Sessions = append(want.Sessions, sampleSession(uint64(i+1)))
			c := sampleChunk()
			c.SessionID, c.ChunkID = uint64(i/3+1), i%3
			want.Chunks = append(want.Chunks, c)
		}
		var in bytes.Buffer
		if err := WriteJSONL(&in, want); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSONL(bytes.NewReader(in.Bytes()))
		if err != nil {
			t.Fatalf("%d records: %v", n, err)
		}
		if len(got.Sessions) != n || cap(got.Sessions) != n || len(got.Chunks) != n || cap(got.Chunks) != n {
			t.Errorf("%d records: sessions len %d cap %d, chunks len %d cap %d", n,
				len(got.Sessions), cap(got.Sessions), len(got.Chunks), cap(got.Chunks))
		}
		if n == 0 && (got.Sessions != nil || got.Chunks != nil) {
			t.Errorf("no records: got non-nil slices")
		}
		if !slices.Equal(got.Sessions, want.Sessions) || !slices.Equal(got.Chunks, want.Chunks) {
			t.Errorf("%d records: read back differs", n)
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in.Bytes()) {
			t.Errorf("%d records: rewrite differs from the input", n)
		}
	}
}

// TestReadJSONLChunkLineAllocationFree: with a block's capacity in
// place, decoding a chunk line allocates nothing; its one string field
// is interned.
func TestReadJSONLChunkLineAllocationFree(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, &Dataset{Chunks: []ChunkRecord{sampleChunk()}}); err != nil {
		t.Fatal(err)
	}
	line := buf.Bytes()
	dec := lineDecoder{strs: make(map[string]string)}
	var recs traceRecords
	allocs := testing.AllocsPerRun(200, func() {
		if err := dec.line(&recs, line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("chunk line costs %.1f allocations, want 0", allocs)
	}
	if got := recs.chunks.slice(); got[0] != sampleChunk() {
		t.Errorf("decoded %+v", got[0])
	}
}

// FuzzReadJSONL: the reader never panics; whatever it accepts, the
// reference decoder accepts with an equal dataset; and the accepted
// dataset writes as the reference writes it, and re-reads and re-writes
// to the same bytes.
func FuzzReadJSONL(f *testing.F) {
	var canon bytes.Buffer
	ds := &Dataset{Sessions: []SessionRecord{sampleSession(1), sampleSession(2)}, Chunks: []ChunkRecord{sampleChunk()}}
	ds.Sessions[1].StartupMS = math.NaN()
	ds.Sessions[1].UserAgent = "<a&b> \"\\"
	if err := WriteJSONL(&canon, ds); err != nil {
		f.Fatal(err)
	}
	f.Add(canon.Bytes())
	for _, line := range bytes.SplitAfter(canon.Bytes(), []byte("\n")) {
		f.Add(line)
		f.Add(line[:len(line)/2])
	}
	for _, seed := range []string{
		`{"chunk":{"TruthTransient":true,"CacheLevel":"miss","SessionID":7,"ChunkID":2}}`,
		`{"Session":{"sessionid":3,"STARTUPMS":null,"extra":{"k":[true,false,null,"s",-1.5e-3]}}}`,
		`{"session":{"StartupMS":null},"chunk":{"DFBms":1}}`,
		"{\"chunk\":{\"CacheLevel\":\"<\U0001F3AC\\n\\\\\\/\"}}",
		"\n\n{\"chunk\":{}}\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		want, err := refReadJSONL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted input the reference rejects (%v)", err)
		}
		if err := equalDatasets(got, want); err != nil {
			t.Fatalf("decoded differently from the reference: %v", err)
		}
		var w1, ref, w2 bytes.Buffer
		if err := WriteJSONL(&w1, got); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		if err := refWriteJSONL(&ref, got); err != nil {
			t.Fatalf("reference re-write: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), ref.Bytes()) {
			t.Fatalf("re-write differs from the reference:\n%q\n%q", w1.Bytes(), ref.Bytes())
		}
		again, err := ReadJSONL(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if err := WriteJSONL(&w2, again); err != nil {
			t.Fatalf("second re-write: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write, read, write is not byte-stable:\n%q\n%q", w1.Bytes(), w2.Bytes())
		}
	})
}

// FuzzReadSessionsCSV: the session CSV reader returns an error, never a
// panic, and what it accepts is in canonical form after one write: that
// write reads back and writes again to the same bytes.
func FuzzReadSessionsCSV(f *testing.F) {
	sessions := []SessionRecord{sampleSession(1), sampleSession(2)}
	sessions[1].StartupMS = math.NaN()
	sessions[1].OrgName = "Org, \"Inc\"\nLtd"
	var canon bytes.Buffer
	if err := WriteSessionsCSV(&canon, sessions); err != nil {
		f.Fatal(err)
	}
	f.Add(canon.Bytes())
	f.Add(canon.Bytes()[:canon.Len()/2])
	header := strings.Join(sessionsCSVHeader, ",") + "\n"
	f.Add([]byte(header))
	f.Add([]byte(header + strings.Repeat("1,", len(sessionsCSVHeader)-1) + "1\n"))
	// A quoted CR CR LF reads as CR LF, which encoding/csv cannot write
	// back: the reader rejects it.
	f.Add([]byte(header + "1,\"a\r\r\nb\"," + strings.Repeat("1,", len(sessionsCSVHeader)-3) + "1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadSessionsCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var w1, w2 bytes.Buffer
		if err := WriteSessionsCSV(&w1, recs); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := ReadSessionsCSV(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if err := WriteSessionsCSV(&w2, back); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write, read, write is not byte-stable:\n%q\n%q", w1.Bytes(), w2.Bytes())
		}
	})
}

// benchDataset is a generated dataset the size of the trace-analyze
// workload's: 2500 sessions and 17.5k chunks, with full-precision floats
// like the simulator's.
func benchDataset() *Dataset {
	rng := rand.New(rand.NewSource(1))
	d := &Dataset{}
	for i := 1; i <= 2500; i++ {
		s := sampleSession(uint64(i))
		s.HTTPClientIP = fmt.Sprintf("10.%d.%d.%d", i%7, i%251, i%13)
		s.BeaconIP = s.HTTPClientIP
		s.Prefix = fmt.Sprintf("prefix-%04d/24", rng.Intn(750))
		s.VideoLenSec, s.DistanceKM, s.ArrivalMS = rng.Float64()*600, rng.Float64()*3000, rng.Float64()*1.8e6
		s.StartupMS, s.SRTTMeanMS, s.SRTTCV = rng.Float64()*2000, rng.Float64()*80, rng.Float64()
		d.Sessions = append(d.Sessions, s)
		for c := 0; c < 7; c++ {
			k := sampleChunk()
			k.SessionID, k.ChunkID = uint64(i), c
			k.DFBms, k.DLBms, k.TruthDDSms = rng.Float64()*400, rng.Float64()*3000, rng.Float64()*300
			k.DwaitMS, k.DopenMS, k.DreadMS = rng.Float64(), rng.Float64(), rng.Float64()*2
			k.SRTTms, k.SRTTVarMS = rng.Float64()*80, rng.Float64()*8
			d.Chunks = append(d.Chunks, k)
		}
	}
	return d
}

var benchSink *Dataset

func BenchmarkJSONLWrite(b *testing.B) {
	ds := benchDataset()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, ds); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteJSONL(&buf, ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONLRead(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, benchDataset()); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ds
	}
}
