package network

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestFanInOneSensorIsRun: one sensor is the single-sensor chain, so
// RunFanIn must report exactly Run's stats.
func TestFanInOneSensorIsRun(t *testing.T) {
	st := testStore(t, 900)
	plan := mustPlan(t, "SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y AND z < 2 GROUP BY x, y")
	topo := DefaultApartment()
	single, err := Run(context.Background(), topo, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	fan, err := RunFanIn(context.Background(), topo, plan, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fan, single) {
		t.Fatalf("k=1 fan-in differs from Run:\n%s\nvs\n%s", fan.Summary(), single.Summary())
	}
}

// TestFanInEquivalentToSingleSensor: spreading the base data over sensors
// changes only simulated time. Rows (in order), per-link traffic, egress
// and every stage's accounting are Run's; SimTime differs by exactly the
// sensor compute saved (one shard instead of the whole relation) and the
// extra link-0 shipment latencies (one per sensor on the shared radio).
func TestFanInEquivalentToSingleSensor(t *testing.T) {
	const n, k = 900, 16
	st := testStore(t, n)
	q := "SELECT x, y, AVG(z) AS zavg FROM d WHERE x > y AND z < 2 GROUP BY x, y"
	plan := mustPlan(t, q)
	topo := DefaultApartment()

	single, err := Run(context.Background(), topo, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	fan, err := RunFanIn(context.Background(), topo, plan, st, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fan.Result, single.Result) {
		t.Fatal("fan-in rows differ from Run's")
	}
	if !reflect.DeepEqual(fan.Traffic, single.Traffic) {
		t.Fatalf("traffic differs:\n%s\nvs\n%s", fan.Summary(), single.Summary())
	}
	if fan.EgressBytes != single.EgressBytes || fan.RawBytes != single.RawBytes {
		t.Fatalf("egress/raw differ: %d/%d vs %d/%d",
			fan.EgressBytes, fan.RawBytes, single.EgressBytes, single.RawBytes)
	}
	if !reflect.DeepEqual(fan.Assignments, single.Assignments) {
		t.Fatalf("assignments differ:\n%s\nvs\n%s", fan.Summary(), single.Summary())
	}
	if fan.Assignments[0].Node != topo.Nodes[0] {
		t.Fatalf("stage 1 ran on %s, want the sensors", fan.Assignments[0].Node.Name)
	}
	for _, a := range fan.Assignments {
		if a.Path() == "" {
			t.Fatalf("Q%d reports no execution path", a.Fragment.Stage)
		}
	}

	shard := (n + k - 1) / k
	deltaMs := float64(shard-n)/topo.Nodes[0].Power/1000 + float64(k-1)*topo.Links[0].LatencyMs
	want := single.SimTime + time.Duration(deltaMs*float64(time.Millisecond))
	// Both durations are truncated from float milliseconds: allow 1ns.
	if d := fan.SimTime - want; d < -1 || d > 1 {
		t.Fatalf("SimTime %v, want Run's %v %+.3fms = %v", fan.SimTime, single.SimTime, deltaMs, want)
	}
}

func TestFanInParallelSensorsComputeFaster(t *testing.T) {
	st := testStore(t, 5000)
	q := "SELECT x, y FROM d WHERE z < 1"
	plan := mustPlan(t, q)
	topo := DefaultApartment()

	single, err := RunFanIn(context.Background(), topo, plan, st, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := RunFanIn(context.Background(), topo, plan, st, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Sensor compute parallelizes; the shared radio does not. With the
	// slow sensor CPU dominating, 64 sensors must be faster overall.
	if many.SimTime >= single.SimTime {
		t.Fatalf("64 sensors should beat 1: %v vs %v", many.SimTime, single.SimTime)
	}
}

func TestFanInValidation(t *testing.T) {
	st := testStore(t, 10)
	plan := mustPlan(t, "SELECT x FROM d")
	if _, err := RunFanIn(context.Background(), DefaultApartment(), plan, st, 0); err == nil {
		t.Fatal("zero sensors must fail")
	}
}

func TestFanInFirstLinkCarriesAllShards(t *testing.T) {
	st := testStore(t, 1200)
	plan := mustPlan(t, "SELECT * FROM d WHERE z < 1")
	fan, err := RunFanIn(context.Background(), DefaultApartment(), plan, st, 8)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(context.Background(), DefaultApartment(), plan, st)
	if err != nil {
		t.Fatal(err)
	}
	if fan.Traffic[0].Bytes != single.Traffic[0].Bytes {
		t.Fatalf("first-link volume should be shard-count independent: %d vs %d",
			fan.Traffic[0].Bytes, single.Traffic[0].Bytes)
	}
}
