package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func sample() *State {
	return &State{
		Dialect:      2,
		Seed:         7,
		MaxLen:       5,
		Execs:        1234,
		Stmts:        5678,
		EnginePanics: 3,
		RNG:          0xdeadbeefcafef00d,
		Pool: []PoolSeed{
			{SQL: "CREATE TABLE t (a INT);", NewEdges: 9, Picked: 2},
			{SQL: "SELECT 1;", NewEdges: 1, Picked: 0},
		},
		Affinity:    [][2]uint16{{1, 2}, {2, 3}},
		GenAffinity: [][2]uint16{{1, 2}},
		Coverage:    []Edge{{Idx: 10, Mask: 3}, {Idx: 99, Mask: 128}},
		Crashes: []Crash{{
			ID: "ORGANIC-0badf00d", Component: "Engine", Kind: "PANIC",
			Stack: []string{"minidb.(*Engine).dispatch"}, Window: []uint16{1, 4},
			Reproducer: "SELECT 1;", FoundAtExec: 77, Hits: 4,
			Status: "STABLE", OriginalLen: 9, MinimizedLen: 1, Replays: 3,
		}},
		Curve:       []CurvePoint{{Execs: 50, Edges: 120}},
		Library:     map[uint16][]string{1: {"CREATE TABLE t (a INT);"}},
		SynthSeqs:   [][]uint16{{1, 4, 6}},
		SynthStarts: []uint16{1},
		SynthRot:    5,
		Pending:     [][2]uint16{{4, 6}},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	want := sample()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip changed state:\nsaved  %s\nloaded %s", a, b)
	}
	if got.Version != Version {
		t.Fatalf("version = %d, want %d", got.Version, Version)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "camp.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	second := sample()
	second.Execs = 99999
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Execs != 99999 {
		t.Fatalf("overwrite lost: execs = %d", got.Execs)
	}
	// no temp files may survive a successful save
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	// Flip a digit inside the state payload without breaking JSON syntax.
	mut := strings.Replace(string(data), `"execs": 1234`, `"execs": 1235`, 1)
	if mut == string(data) {
		t.Fatal("mutation did not apply; field layout changed?")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("tampered checkpoint must fail the checksum, got %v", err)
	}
}

func TestLoadRejectsGarbageAndTruncation(t *testing.T) {
	dir := t.TempDir()

	garbage := filepath.Join(dir, "garbage")
	os.WriteFile(garbage, []byte("not json at all"), 0o644)
	if _, err := Load(garbage); err == nil {
		t.Fatal("garbage file must not load")
	}

	path := filepath.Join(dir, "trunc.ckpt")
	if err := Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/2], 0o644)
	if _, err := Load(path); err == nil {
		t.Fatal("truncated file must not load")
	}

	if _, err := Load(filepath.Join(dir, "missing.ckpt")); err == nil {
		t.Fatal("missing file must not load")
	}
}

// writeVersion writes a checkpoint whose version field claims v but whose
// checksum is internally consistent — exactly what an old binary's file looks
// like to this one.
func writeVersion(t *testing.T, path string, v string) {
	t.Helper()
	payload, _ := json.Marshal(sample())
	payload = bytes.Replace(payload, []byte(`"version":0`), []byte(`"version":`+v), 1)
	env, _ := json.Marshal(envelope{Checksum: sum(payload), State: payload})
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	writeVersion(t, path, "999")
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch must fail, got %v", err)
	}
}

func TestLoadRejectsV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.ckpt")
	writeVersion(t, path, "1")
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 checkpoint must be rejected, got %v", err)
	}
}

// TestLoadAcceptsOnlyCurrentVersion: Load reads exactly Version. Every
// older format — including v4, whose fault-injected campaigns recorded a
// stream position the keyed fault schedule cannot honour — and every
// future one is rejected loudly, not half-understood.
func TestLoadAcceptsOnlyCurrentVersion(t *testing.T) {
	dir := t.TempDir()
	for v := 0; v <= Version+1; v++ {
		path := filepath.Join(dir, fmt.Sprintf("v%d.ckpt", v))
		writeVersion(t, path, strconv.Itoa(v))
		_, err := Load(path)
		if v == Version {
			if err != nil {
				t.Fatalf("v%d checkpoint must load, got %v", v, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("v%d checkpoint must be rejected, got %v", v, err)
		}
	}
}

// TestTriageFieldsRoundTrip pins the crash triage fields through a full file
// round trip, including their omission when empty (untriaged crash).
func TestTriageFieldsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	want := sample()
	want.Crashes = append(want.Crashes, Crash{
		ID: "MDEV-0", Component: "Item", Kind: "AF",
		Stack: []string{"a", "b"}, Reproducer: "SELECT 2;", FoundAtExec: 9, Hits: 1,
	})
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c := got.Crashes[0]
	if c.Status != "STABLE" || c.OriginalLen != 9 || c.MinimizedLen != 1 || c.Replays != 3 {
		t.Fatalf("triage fields lost: %+v", c)
	}
	if u := got.Crashes[1]; u.Status != "" || u.OriginalLen != 0 || u.MinimizedLen != 0 || u.Replays != 0 {
		t.Fatalf("untriaged crash grew fields: %+v", u)
	}
}

// TestShardedRoundTrip pins the sharded layout: topology fields and the nested
// per-shard states survive a full file round trip byte-exactly.
func TestShardedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	s0, s1 := sample(), sample()
	s1.Seed = 8 // shard 1 runs the base seed + 1 stream
	s1.RNG = 0x1111
	want := &State{
		Dialect: 2, Seed: 7, MaxLen: 5,
		Execs: s0.Execs + s1.Execs, Stmts: s0.Stmts + s1.Stmts,
		Workers: 2, EpochStmts: 500, Epoch: 12,
		Shards:  []*State{s0, s1},
		Curve:   []CurvePoint{{Execs: 100, Edges: 240}},
		Crashes: sample().Crashes,
	}
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workers != 2 || got.EpochStmts != 500 || got.Epoch != 12 {
		t.Fatalf("topology lost: %+v", got)
	}
	if len(got.Shards) != 2 || got.Shards[1].Seed != 8 || got.Shards[1].RNG != 0x1111 {
		t.Fatalf("nested shard states lost: %+v", got.Shards)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("sharded round trip changed state:\nsaved  %s\nloaded %s", a, b)
	}
}

// TestSaveRotatesBackup: overwriting a checkpoint must leave the previous
// generation at <path>.bak.
func TestSaveRotatesBackup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "camp.ckpt")
	first := sample()
	first.Execs = 100
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + BackupSuffix); err == nil {
		t.Fatal("first save must not create a backup")
	}
	second := sample()
	second.Execs = 200
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	bak, err := Load(path + BackupSuffix)
	if err != nil {
		t.Fatalf("rotated backup unreadable: %v", err)
	}
	if bak.Execs != 100 {
		t.Fatalf("backup execs = %d, want the previous generation (100)", bak.Execs)
	}
	cur, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Execs != 200 {
		t.Fatalf("primary execs = %d", cur.Execs)
	}
}

// TestLoadWithFallback: a corrupt or truncated primary falls back to the
// rotated last-good generation with a warning; with no usable backup the
// primary's error surfaces.
func TestLoadWithFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "camp.ckpt")
	first := sample()
	first.Execs = 100
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	second := sample()
	second.Execs = 200
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}

	// Clean primary: no warning, newest generation.
	st, warn, err := LoadWithFallback(path)
	if err != nil || warn != "" || st.Execs != 200 {
		t.Fatalf("clean load: execs=%v warn=%q err=%v", st.Execs, warn, err)
	}

	// Truncate the primary: fall back to the .bak with a warning.
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/3], 0o644)
	st, warn, err = LoadWithFallback(path)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if st.Execs != 100 {
		t.Fatalf("fallback execs = %d, want last-good 100", st.Execs)
	}
	if !strings.Contains(warn, BackupSuffix) || !strings.Contains(warn, "last-good") {
		t.Fatalf("warning must name the backup: %q", warn)
	}

	// Corrupt both generations: the primary's error wins.
	os.WriteFile(path+BackupSuffix, []byte("junk"), 0o644)
	if _, _, err := LoadWithFallback(path); err == nil {
		t.Fatal("both generations corrupt must error")
	}

	// Missing everything.
	if _, _, err := LoadWithFallback(filepath.Join(dir, "nope.ckpt")); err == nil {
		t.Fatal("missing checkpoint must error")
	}
}
