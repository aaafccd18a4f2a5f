package glitchsim

import (
	"context"
	"testing"

	"glitchsim/internal/circuits"
)

// TestConfigExplicitZero: the zero value of Cycles/Warmup selects the
// documented defaults, while ExplicitZero requests an actual zero count
// (previously impossible: an explicit 0 was silently promoted).
func TestConfigExplicitZero(t *testing.T) {
	nl := circuits.NewRCA(4, circuits.Cells)

	def := Config{}.withDefaults(nl)
	if def.Cycles != 500 || def.Warmup != 8 {
		t.Fatalf("zero-value defaults: cycles=%d warmup=%d, want 500/8", def.Cycles, def.Warmup)
	}
	if def.Seed != 1 || def.Delay == nil || def.Source == nil {
		t.Fatalf("zero-value defaults incomplete: %+v", def)
	}

	z := Config{Cycles: ExplicitZero, Warmup: ExplicitZero}.withDefaults(nl)
	if z.Cycles != 0 || z.Warmup != 0 {
		t.Fatalf("ExplicitZero: cycles=%d warmup=%d, want 0/0", z.Cycles, z.Warmup)
	}

	mixed := Config{Cycles: 25, Warmup: ExplicitZero}.withDefaults(nl)
	if mixed.Cycles != 25 || mixed.Warmup != 0 {
		t.Fatalf("mixed: cycles=%d warmup=%d, want 25/0", mixed.Cycles, mixed.Warmup)
	}
}

// TestMeasureZeroWarmup: with warm-up disabled the measurement includes
// the start-up cycles, so the counter sees exactly Cycles cycles and the
// run from reset differs from a warmed-up run only in where measurement
// starts — both must succeed.
func TestMeasureZeroWarmup(t *testing.T) {
	e, ctx := NewEngine(), context.Background()
	nl := CircuitFromNetlist(circuits.NewRCA(8, circuits.Cells))

	cold, err := e.MeasureDetailed(ctx, MeasureRequest{Circuit: nl, Config: Config{Cycles: 30, Warmup: ExplicitZero}})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cycles() != 30 {
		t.Fatalf("cold counter saw %d cycles, want 30", cold.Cycles())
	}

	warm, err := e.MeasureDetailed(ctx, MeasureRequest{Circuit: nl, Config: Config{Cycles: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cycles() != 30 {
		t.Fatalf("warm counter saw %d cycles, want 30", warm.Cycles())
	}

	// Zero measured cycles is a legal request: no classified activity.
	none, err := e.MeasureDetailed(ctx, MeasureRequest{Circuit: nl, Config: Config{Cycles: ExplicitZero}})
	if err != nil {
		t.Fatal(err)
	}
	if none.Cycles() != 0 || none.Totals().Transitions != 0 {
		t.Fatalf("zero-cycle measurement recorded activity: %+v", none.Totals())
	}
}
