package session

// Unit tests for the migration wire format: ExportRecord validation (the
// truncation/duplication guard), Store.Export's live-state pinning, and
// Store.Import's replay delegation. The cluster layer's fuzz and
// differential tests cover the HTTP surface; these pin the pure logic.

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

func validRecord() *ExportRecord {
	return &ExportRecord{
		SessionID: "s-abc",
		BaseHash:  "deadbeef",
		Version:   2,
		Create:    json.RawMessage(`{"op":"create"}`),
		Deltas:    []json.RawMessage{json.RawMessage(`{"deltas":[1]}`), json.RawMessage(`{"deltas":[2]}`)},
	}
}

func TestExportRecordValidate(t *testing.T) {
	if err := validRecord().Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*ExportRecord)
		want string
	}{
		{"missing session id", func(r *ExportRecord) { r.SessionID = "" }, "missing session_id"},
		{"missing create", func(r *ExportRecord) { r.Create = nil }, "missing create"},
		{"create not JSON", func(r *ExportRecord) { r.Create = json.RawMessage(`{"op":`) }, "not valid JSON"},
		{"negative version", func(r *ExportRecord) { r.Version = -1 }, "negative version"},
		{"truncated log", func(r *ExportRecord) { r.Deltas = r.Deltas[:1] }, "truncated or duplicated"},
		{"duplicated log", func(r *ExportRecord) { r.Deltas = append(r.Deltas, r.Deltas[1]) }, "truncated or duplicated"},
		{"delta not JSON", func(r *ExportRecord) { r.Deltas[1] = json.RawMessage(`{`) }, "not valid JSON"},
		{"empty delta", func(r *ExportRecord) { r.Deltas[0] = nil }, "not valid JSON"},
	}
	for _, tc := range cases {
		rec := validRecord()
		tc.mut(rec)
		err := rec.Validate()
		if err == nil {
			t.Fatalf("%s: validated", tc.name)
		}
		var ce *ClientError
		if !errors.As(err, &ce) || ce.Status != http.StatusBadRequest {
			t.Fatalf("%s: want 400 ClientError, got %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestStoreExportPinsLiveState(t *testing.T) {
	st := NewStore(StoreConfig{MaxSessions: 4, TTL: time.Minute}, nil)
	s, err := st.CreateWithID("s-exp", base4(t), 0, "hash-exp")
	if err != nil {
		t.Fatal(err)
	}
	create := []byte(`{"op":"create","graph":{}}`)
	delta := []byte(`{"deltas":[{"op":"add_vertex"}]}`)

	rec, err := st.Export("s-exp", create, nil)
	if err != nil {
		t.Fatalf("export at version 0: %v", err)
	}
	if rec.SessionID != "s-exp" || rec.BaseHash != "hash-exp" || rec.Version != 0 || len(rec.Deltas) != 0 {
		t.Fatalf("export record %+v", rec)
	}
	if string(rec.Create) != string(create) {
		t.Fatalf("create body %s", rec.Create)
	}
	// The record must be a deep copy: mutating the caller's byte slices
	// after export must not corrupt it.
	create[0] = 'X'
	if string(rec.Create) == string(create) {
		t.Fatal("export aliased the caller's create body")
	}

	// Advance the live session; a log that didn't keep up is a 409, not
	// a silently stale export.
	if _, err := s.Apply([]Delta{{Op: OpAddVertex}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Export("s-exp", rec.Create, nil); err == nil {
		t.Fatal("export with lagging log succeeded")
	} else {
		var ce *ClientError
		if !errors.As(err, &ce) || ce.Status != http.StatusConflict {
			t.Fatalf("want 409 ClientError, got %v", err)
		}
	}
	rec2, err := st.Export("s-exp", rec.Create, [][]byte{delta})
	if err != nil {
		t.Fatalf("export at version 1: %v", err)
	}
	if rec2.Version != 1 || len(rec2.Deltas) != 1 || string(rec2.Deltas[0]) != string(delta) {
		t.Fatalf("export record %+v", rec2)
	}
	if err := rec2.Validate(); err != nil {
		t.Fatalf("exported record fails its own validation: %v", err)
	}

	// No create body in the log: the session cannot be reconstructed, so
	// exporting it would ship an unreplayable record.
	if _, err := st.Export("s-exp", nil, nil); err == nil {
		t.Fatal("export without create body succeeded")
	}
	// Unknown session: the store's own 404.
	if _, err := st.Export("s-nope", rec.Create, nil); err == nil {
		t.Fatal("export of unknown session succeeded")
	}
}

func TestStoreImportDelegatesToReplay(t *testing.T) {
	st := NewStore(StoreConfig{MaxSessions: 4, TTL: time.Minute}, nil)
	rec := validRecord()

	var gotID, gotHash string
	var gotCreate []byte
	var gotDeltas [][]byte
	err := st.Import(rec, func(id, baseHash string, create []byte, deltas [][]byte) error {
		gotID, gotHash, gotCreate, gotDeltas = id, baseHash, create, deltas
		return nil
	})
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if gotID != rec.SessionID || gotHash != rec.BaseHash {
		t.Fatalf("replay got id=%q hash=%q", gotID, gotHash)
	}
	if string(gotCreate) != string(rec.Create) || len(gotDeltas) != 2 {
		t.Fatalf("replay got create=%s deltas=%d", gotCreate, len(gotDeltas))
	}

	// A record that fails validation never reaches replay.
	bad := validRecord()
	bad.Deltas = bad.Deltas[:1]
	called := false
	err = st.Import(bad, func(string, string, []byte, [][]byte) error { called = true; return nil })
	if err == nil || called {
		t.Fatalf("invalid record: err=%v replayCalled=%v", err, called)
	}

	// Replay errors surface unchanged (the service layer owns their
	// status mapping).
	want := Errf(http.StatusConflict, "already live")
	err = st.Import(rec, func(string, string, []byte, [][]byte) error { return want })
	if !errors.Is(err, want) && err != want {
		t.Fatalf("replay error not surfaced: %v", err)
	}
}

func TestExportRecordJSONRoundTrip(t *testing.T) {
	rec := validRecord()
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back ExportRecord
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if back.SessionID != rec.SessionID || back.BaseHash != rec.BaseHash ||
		back.Version != rec.Version || len(back.Deltas) != len(rec.Deltas) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped record invalid: %v", err)
	}
}
