package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	laoram "repro"
	"repro/internal/crypto"
	"repro/internal/diskstore"
	"repro/internal/oram"
	"repro/internal/remote"
)

// tinyScale runs the benchmark's own code on a 1024-row table in well
// under a second per workload.
func tinyScale(t *testing.T) params {
	return params{
		seed: 7, budget: time.Millisecond, workdir: t.TempDir(),
		rows: 1 << 10, window: 1 << 10,
		repStream: map[string]int{
			"train-laoram-mem":         3 << 9,
			"train-pathoram-mem":       3 << 9,
			"train-laoram-sealed-disk": 3 << 9,
		},
		minReps: 3, checkCalls: 8, checkIDs: 4, callIDs: 16, minCalls: 20,
	}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// Every workload prints exactly the declared metrics with their units:
// the end-to-end set untraced, the per-layer set traced. The traced run
// also fails unless its deterministic counters equal the untraced run's.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	d := readDeclared(t)
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			p := tinyScale(t)
			p.trace = traced
			res, err := run(name, p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// One deliberately corrupted row fails the training check.
func TestTrainCheckCatchesCorruptRow(t *testing.T) {
	p := tinyScale(t)
	name := "train-laoram-mem"
	spec := trainSpecs[name]
	in, err := makeTrainInputs(name, spec, p)
	if err != nil {
		t.Fatal(err)
	}
	id := in.readIDs[0]
	r, err := trainRep(spec, p, in, &latencies{}, func(db *laoram.ORAM) error {
		return db.Write(id, stampRow(id, in.readWant[0]+1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.bad != 1 {
		t.Fatalf("check found %d bad rows after corrupting row %d, want 1", r.bad, id)
	}
}

// One row changed behind the model's back fails the serving check.
func TestServeCheckCatchesCorruptRow(t *testing.T) {
	p := tinyScale(t)
	calls, err := makeServeCalls(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	var id uint64
	for _, c := range calls {
		if !c.write {
			id = c.ids[0]
			break
		}
	}
	r, err := startRig(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if err := r.db.Write(id, stampRow(id, 99)); err != nil {
		t.Fatal(err)
	}
	loop, err := runServeLoop(r, calls, p)
	if err != nil {
		t.Fatal(err)
	}
	if loop.bad == 0 {
		t.Fatalf("serving check missed corrupted row %d", id)
	}
}

// The timing decorator exposes exactly the optional store extensions of
// the store it wraps, for each backing store the benchmark decorates, so
// the client and the shard engine take the same code paths under tracing.
func TestWrapStoreForwardsExtensions(t *testing.T) {
	g, err := oram.NewGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 4, BlockSize: rowBytes})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := crypto.NewSealer(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := diskstore.Open(diskstore.Config{
		Path: filepath.Join(t.TempDir(), "tree.laor"), Geometry: g, Sealer: sealer, MemBudget: 1, Prefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	srvStore, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(srvStore, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rs, err := rc.Store(0)
	if err != nil {
		t.Fatal(err)
	}

	for _, st := range []oram.Store{ps, ds, rs} {
		tr := &storeTracer{}
		w, err := wrapStore(st, tr.lane())
		if err != nil {
			t.Fatalf("%T: %v", st, err)
		}
		if got, want := extensions(w), extensions(st); got != want {
			t.Errorf("%T: decorator extensions %#x, store has %#x", st, got, want)
		}
		tr.arm()
		dst := make([][]oram.Slot, g.Levels())
		for l := range dst {
			dst[l] = make([]oram.Slot, g.BucketSize(l))
		}
		if err := w.(oram.PathStore).ReadPath(0, dst); err != nil {
			t.Fatalf("%T: ReadPath: %v", st, err)
		}
		if _, _, ops, _ := tr.totals(); ops != 1 {
			t.Errorf("%T: %d timed operations after one ReadPath, want 1", st, ops)
		}
	}
}
