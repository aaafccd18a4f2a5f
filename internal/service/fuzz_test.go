package service

import (
	"bytes"
	"testing"

	"glitchsim/internal/registry"
	"glitchsim/internal/sim"
)

// FuzzMeasureParams decodes arbitrary bytes as a /v1/measure body the
// way every POST handler does (decodeStrict). A body that decodes and
// passes validate must turn into a Config, and its delay model into a
// delay table of a compiled circuit, without a panic: validate is the
// only guard between the wire and the kernels.
func FuzzMeasureParams(f *testing.F) {
	for _, body := range []string{
		// Each of these panicked behind a 500 before validate bounded
		// the delays.
		`{"circuit":"rca8","cycles":4,"dsum":-1}`,
		`{"circuit":"rca8","cycles":4,"dsum":-2,"dcarry":-2}`,
		`{"circuit":"rca8","cycles":4,"dsum":3000000000,"dcarry":1}`,
		// The benchmark's measure-small and measure-heavy shapes, and
		// the chaos suite's oscillation request.
		`{"circuit":"csel16","cycles":64,"seed":12345}`,
		`{"circuit":"accum16","cycles":64,"seed":678,"typical":true}`,
		`{"circuit":"array16","cycles":1024,"seed":9,"dsum":2,"dcarry":1}`,
		`{"circuit":"wallace16","cycles":1024,"seed":10,"typical":true}`,
		`{"circuit":"booth16","cycles":1024,"seed":11,"power":true}`,
		`{"circuit":"rca8","cycles":4,"dsum":70000,"dcarry":70000}`,
	} {
		f.Add([]byte(body))
	}
	nl, err := registry.Build("rca8")
	if err != nil {
		f.Fatal(err)
	}
	c := sim.Compile(nl)
	f.Fuzz(func(t *testing.T, body []byte) {
		var p MeasureParams
		if decodeStrict(bytes.NewReader(body), &p) != nil || p.validate() != nil {
			return
		}
		cfg := p.config()
		sim.NewDelayTable(c, cfg.Delay)
	})
}
