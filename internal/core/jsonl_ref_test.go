package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// The reference codec: the encoding/json implementation the JSONL trace
// format was defined by. WriteJSONL and ReadJSONL are tested against it
// byte for byte and record for record (jsonl_test.go).

func refWriteJSONL(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range d.Sessions {
		s := &d.Sessions[i]
		if err := enc.Encode(jsonlLine{Session: &jsonSession{s, jsonFloat(s.StartupMS)}}); err != nil {
			return fmt.Errorf("core: write session: %w", err)
		}
	}
	for i := range d.Chunks {
		if err := enc.Encode(jsonlLine{Chunk: &d.Chunks[i]}); err != nil {
			return fmt.Errorf("core: write chunk: %w", err)
		}
	}
	return bw.Flush()
}

type jsonlLine struct {
	Session *jsonSession `json:"session,omitempty"`
	Chunk   *ChunkRecord `json:"chunk,omitempty"`
}

// jsonSession shadows SessionRecord.StartupMS with a null-tolerant float:
// sessions that never started playback carry StartupMS = NaN, which JSON
// cannot represent, so the wire format uses null instead.
type jsonSession struct {
	*SessionRecord
	StartupMS jsonFloat
}

type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jsonFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

func refReadJSONL(r io.Reader) (*Dataset, error) {
	d := &Dataset{}
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var line jsonlLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("core: read trace: %w", err)
		}
		switch {
		case line.Session != nil:
			rec := SessionRecord{}
			if line.Session.SessionRecord != nil {
				rec = *line.Session.SessionRecord
			}
			rec.StartupMS = float64(line.Session.StartupMS)
			d.Sessions = append(d.Sessions, rec)
		case line.Chunk != nil:
			d.Chunks = append(d.Chunks, *line.Chunk)
		}
	}
	d.Index()
	return d, nil
}
