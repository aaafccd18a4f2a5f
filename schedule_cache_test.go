package glitchsim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"glitchsim/internal/registry"
	"glitchsim/internal/sim"
	"glitchsim/netlist"
)

// retained returns the number of a byte memo's entries whose size is
// counted and the sum of their sizes, which must equal its bytes.
func (m *memo[V]) retained() (entries, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if ent := el.Value.(*memoEntry[V]); ent.size > 0 {
			entries++
			bytes += ent.size
		}
	}
	if bytes != m.bytes {
		panic(fmt.Sprintf("memo counts %d bytes, its entries hold %d", m.bytes, bytes))
	}
	return entries, bytes
}

// TestMemoScheduleMeasureHeavy: the nine measure-heavy shapes — the
// three 16-bit multipliers under unit, full-adder-ratio and typical
// delay, as the service builds those models — measured once cache
// nothing (a shape seen once may be a one-off upload), measured twice
// cache nine schedules of at most 600 KB together (16-bit slot indices;
// 32-bit ones would take 1.1 MB), and measured again build none.
func TestMemoScheduleMeasureHeavy(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	measureAll := func() {
		for _, name := range []string{"array16", "wallace16", "booth16"} {
			for _, dm := range []struct{ dsum, dcarry int }{{1, 1}, {2, 1}, {0, 0}} {
				cfg := Config{Cycles: 64, Delay: registry.DelayModel(dm.dsum, dm.dcarry, dm.dsum == 0)}
				if _, err := e.Measure(ctx, MeasureRequest{Circuit: CircuitNamed(name), Config: cfg}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	measureAll()
	if entries, _ := e.schedules.retained(); entries != 0 {
		t.Fatalf("shapes measured once cache %d schedules", entries)
	}
	measureAll()
	entries, bytes := e.schedules.retained()
	if entries != 9 || bytes > 600_000 {
		t.Fatalf("the measure-heavy shapes cache %d schedules of %d bytes, want 9 of at most 600 KB", entries, bytes)
	}
	t.Logf("nine measure-heavy schedules: %d bytes", bytes)
	misses := e.schedules.misses
	measureAll()
	if e.schedules.misses != misses {
		t.Errorf("a warm engine built %d schedules", e.schedules.misses-misses)
	}
}

// TestMemoScheduleModes: one shape measured in transport and in
// inertial mode caches two schedules, which differ once a pin has an
// inertial window, and a repeat builds neither again. Under a uniform
// delay the modes coincide, and both share one entry.
func TestMemoScheduleModes(t *testing.T) {
	e := NewEngine()
	measure := func(dsum, dcarry int, inertial bool) {
		cfg := Config{Cycles: 64, Delay: registry.DelayModel(dsum, dcarry, false), Inertial: inertial}
		if _, err := e.Measure(context.Background(), MeasureRequest{Circuit: CircuitNamed("array8"), Config: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		measure(2, 1, false)
		measure(2, 1, true)
	}
	if entries, _ := e.schedules.retained(); entries != 2 {
		t.Fatalf("transport and inertial measurements of one shape cache %d schedules, want 2", entries)
	}
	misses := e.schedules.misses
	measure(2, 1, false)
	measure(2, 1, true)
	if e.schedules.misses != misses {
		t.Errorf("a warm engine built %d schedules", e.schedules.misses-misses)
	}
	for range 2 {
		measure(1, 1, false)
		measure(1, 1, true)
	}
	if entries, _ := e.schedules.retained(); entries != 3 {
		t.Errorf("unit-delay measurements in both modes cache %d schedules, want 1", entries-2)
	}
}

// TestMemoScheduleByteBound: the engine's schedule cache stays within
// scheduleCacheBytes over a sweep of every registry circuit, and a byte
// memo with a bound the sweep outgrows evicts down to it after every
// lookup, concurrent ones included, while handing every caller the
// schedule it asked for.
func TestMemoScheduleByteBound(t *testing.T) {
	e := NewEngine()
	for _, name := range registry.Names() {
		for _, dm := range []struct{ dsum, dcarry int }{{1, 1}, {2, 1}, {3, 1}, {0, 0}} {
			cfg := Config{Cycles: 64, Delay: registry.DelayModel(dm.dsum, dm.dcarry, dm.dsum == 0)}
			if _, err := e.Measure(context.Background(), MeasureRequest{Circuit: CircuitNamed(name), Config: cfg}); err != nil {
				t.Fatal(err)
			}
			if _, bytes := e.schedules.retained(); bytes > scheduleCacheBytes {
				t.Fatalf("after %s the schedule cache holds %d bytes, bound %d", name, bytes, scheduleCacheBytes)
			}
		}
	}

	var compiled []*sim.Compiled
	var tables []*sim.DelayTable
	for _, name := range []string{"array16", "booth16", "wallace16", "array8", "dirdet8r"} {
		c := e.compiled(mustNetlist(t, name), "")
		for _, dm := range []struct{ dsum, dcarry int }{{1, 1}, {2, 1}, {0, 0}} {
			compiled = append(compiled, c)
			tables = append(tables, sim.NewDelayTable(c, registry.DelayModel(dm.dsum, dm.dcarry, dm.dsum == 0)))
		}
	}
	const bound = 200_000 // below a third of the sweep's schedules
	m := newByteMemo(true, bound, (*sim.Schedule).Bytes)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for i := range 2 * len(compiled) {
					i := (i/2 + w + round) % len(compiled)
					opts := sim.Options{Delays: tables[i]}
					sc := scheduleFor(m, compiled[i], opts)
					if want := sim.NewSchedule(compiled[i], opts); sc.Slots() != want.Slots() || sc.Instructions() != want.Instructions() {
						t.Errorf("lookup %d returned another shape's schedule", i)
					}
					if _, bytes := m.retained(); bytes > bound {
						t.Errorf("the memo holds %d bytes, bound %d", bytes, bound)
					}
				}
			}
		}()
	}
	wg.Wait()
	if m.evictions == 0 {
		t.Error("a sweep larger than the bound evicted nothing")
	}
}

func mustNetlist(t *testing.T, name string) *netlist.Netlist {
	t.Helper()
	nl, err := registry.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}
