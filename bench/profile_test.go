package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"wgtt/internal/csi"
	"wgtt/internal/rf"
)

var esnrSink float64

// TestModuleCPUAttribution burns CPU in a known module function under a
// real CPU profile and checks the decoder gives that module the largest
// module share, with the shares summing to one.
func TestModuleCPUAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	snrs := make([]float64, rf.NumSubcarriers)
	for deadline := time.Now().Add(700 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			for k := range snrs {
				snrs[k] = 5 + float64((i+k)%25)
			}
			esnrSink += csi.EffectiveSNRdB(snrs, csi.RefModulation)
		}
	}
	pprof.StopCPUProfile()

	frac, err := moduleCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum, top, topFrac := 0.0, "", 0.0
	for m, f := range frac {
		sum += f
		// runtime is left out: under -race, samples in the detector's C
		// runtime unwind without their Go callers and land there.
		if m != runtimeModule && f > topFrac {
			top, topFrac = m, f
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1 ± 0.01: %v", sum, frac)
	}
	if top != "csi" {
		t.Errorf("largest share is %s (%.2f), want csi: %v", top, topFrac, frac)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"wgtt/internal/rf.(*Fading).Gain":               "rf",
		"wgtt/internal/core.(*Network).AddClient.func1": "core",
		"wgtt/internal/runner.Map[...]":                 "runner",
		"wgtt/internal/sim":                             "sim",
		"wgtt.BuildServeScenario":                       "",
		"runtime.mallocgc":                              "",
	} {
		got, ok := moduleOf(fn)
		if got != want || ok != (want != "") {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

// TestDecodeUnpackedRepeated checks both encodings an encoder may use
// for repeated integers: runtime/pprof packs long runs only.
func TestDecodeUnpackedRepeated(t *testing.T) {
	var msg []byte
	field := func(num, wire int, payload ...byte) {
		msg = append(msg, byte(num<<3|wire))
		msg = append(msg, payload...)
	}
	// sample{location_id: 1 (unpacked), location_id: [2] (packed), value: 7}
	sample := []byte{1<<3 | wireVarint, 1, 1<<3 | wireBytes, 1, 2, 2<<3 | wireVarint, 7}
	field(2, wireBytes, append([]byte{byte(len(sample))}, sample...)...)
	field(6, wireBytes, 0) // string_table[0] = ""
	p, err := decodeProfile(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 1 || len(p.samples[0].locations) != 2 || p.samples[0].locations[1] != 2 || p.samples[0].values[0] != 7 {
		t.Fatalf("decoded %+v", p.samples)
	}
	field(6, wireBytes, 3, 'x') // a string shorter than its length
	if _, err := decodeProfile(msg); err == nil {
		t.Fatal("truncated string accepted")
	}
}
