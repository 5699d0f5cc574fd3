package wgtt

import (
	"fmt"
	"testing"
)

// render formats a result for bit-level comparison. %#v never calls
// String(), prints floats in round-trip form, and renders NaN as a
// stable token (reflect.DeepEqual would report NaN != NaN).
func render(v fmt.Stringer) string {
	return fmt.Sprintf("%#v", v)
}

// firstDiff returns a short window around the first differing byte, so a
// parity failure on a large result (e.g. the fig10 heatmap) stays
// readable.
func firstDiff(a, b string) string { return firstDiffLabeled("serial", "parallel", a, b) }

func firstDiffLabeled(la, lb, a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	win := func(s string) string {
		hi := i + 40
		if hi > len(s) {
			hi = len(s)
		}
		return s[lo:hi]
	}
	return fmt.Sprintf("at byte %d:\n  %s: …%s…\n  %s: …%s…", i, la, win(a), lb, win(b))
}

// goldenExperiments pins every registered experiment's serial render
// (the Quick variant where one exists) at seeds 1–3, as the first 16
// bytes of the SHA-256 of its %#v. The figure goldens pin Fig 13 and
// Fig 23 at 15 mph only; these hold every other experiment bit for bit,
// so a change to how a ride is built that moves one float of any figure
// fails here.
var goldenExperiments = map[string]string{
	"fig2/seed1":            "e61d8814035c87939028afbedebf6de9",
	"fig2/seed2":            "1aee668a4583f1efd2989da3b5276b54",
	"fig2/seed3":            "5ef3e69f411720c60103e6618ece799c",
	"fig4/seed1":            "62bf8b25f59061069f473f67817727c2",
	"fig4/seed2":            "67e1e8d3cd21b1fc2a25079e03907cec",
	"fig4/seed3":            "1b62594424ae7df2cc850145c47d1987",
	"fig10/seed1":           "c7ffc4a114150b68933035b018fd27c0",
	"fig10/seed2":           "c81ba2cd31f0023a64a27c06a4f0c4ad",
	"fig10/seed3":           "9ddfec40807f3f78fabe36547cefb6d3",
	"table1/seed1":          "3eb3b9c3a3bd0e5d3a3f2d1cc67eb17b",
	"table1/seed2":          "08cc868a0b2c9b83ce8f2ce150cb8790",
	"table1/seed3":          "eba88cb4857102f10bd5f0f51c3e210a",
	"fig13/seed1":           "35de4aad6e6e512f50ff027e0921d3d6",
	"fig13/seed2":           "9914ead3727f7f2545f2099a230630b4",
	"fig13/seed3":           "52ad38c7ca7468f87c8476b67bfd6045",
	"fig14/seed1":           "90db2b52ea25d81137cfeabf8a0b5abc",
	"fig14/seed2":           "e2cb1b8abf65a8016afbbc491438a814",
	"fig14/seed3":           "3eb57d249cdd62aaa01fd71b890754c5",
	"fig15/seed1":           "c73a47433872bd77dcaf21df2825233e",
	"fig15/seed2":           "e4fecb0c3383fa872b41d952768714f7",
	"fig15/seed3":           "160b6fa7a528de64a687d959c6c4f29b",
	"fig16/seed1":           "68c2d792945268abee62e3dc706fc681",
	"fig16/seed2":           "5722f27d206ba9f01a0e9eda288a98de",
	"fig16/seed3":           "f2e9d536df13c287b33313164d9d252f",
	"table2/seed1":          "1c77bea1a4bc6661248807757068b7f5",
	"table2/seed2":          "13d2bdf6c00e3beeba5fa78737e7aaa9",
	"table2/seed3":          "a0cf305a19514a811b234972e0e68fff",
	"fig17/seed1":           "02cfca2b1a4fe34044dc1b6651b7c6bd",
	"fig17/seed2":           "57ed534388a992ae211f0392cddd166e",
	"fig17/seed3":           "501bab51ad4ddbd73595dcb629e590ff",
	"fig18/seed1":           "7953f5952041321193b4532af3f02613",
	"fig18/seed2":           "d56a43cef67f5d6bdf41e7dd8c38be5e",
	"fig18/seed3":           "3776882bb8d7ec66c0926f03fa426c9f",
	"fig20/seed1":           "2c3541614aa7e4c697ae8f07e0ba39c3",
	"fig20/seed2":           "4a2579271ac61af3356d8551708e7694",
	"fig20/seed3":           "2534209c347b927123e36d5b75437c93",
	"fig21/seed1":           "3598deb18038a3e5a0e39fda6d0c9ec4",
	"fig21/seed2":           "6d101224ff2abfccc495da0c26f65425",
	"fig21/seed3":           "2b864a58cb7c26829a4241d76c8f40ab",
	"table3/seed1":          "446017000375a9ec5e5edc01cde51bac",
	"table3/seed2":          "171f1cb553ff58bf1a4d646ec2692bc0",
	"table3/seed3":          "8493ae052122e9c15591b52054e8c05f",
	"fig22/seed1":           "89011576b10f9736b2cc6fc6b79896c6",
	"fig22/seed2":           "821a504053da1e0127f01a78f181822e",
	"fig22/seed3":           "b55e1c66b8886ce0dc40122378846ed4",
	"fig23/seed1":           "b3c1383e433d6ddccf89c38ce1c912d3",
	"fig23/seed2":           "9cdd75b324d01cb1048ed2ae8ae68dff",
	"fig23/seed3":           "7e364a566137a6b7544336fae1f3cf19",
	"table4/seed1":          "644f2989054fdf9582b41674ec267b53",
	"table4/seed2":          "a3fbe78da271a5c0a9e887ed3b9db8a6",
	"table4/seed3":          "40a0d6aac9f2fcd94be48a5155241fb0",
	"fig24/seed1":           "4c849661b99479ce52a1d2b4c8bf7399",
	"fig24/seed2":           "c514a1be61ec34a47a8bf610d60dcece",
	"fig24/seed3":           "af565101442877d5f50b57ce951f5735",
	"table5/seed1":          "31d6389df21a4c6d05eb9bbe54aad544",
	"table5/seed2":          "d5896a9d69b071c640af0ae2435ea09b",
	"table5/seed3":          "6d41a45f2e99577b606ccdf78c0b88d3",
	"ablations/seed1":       "8490d5c09b61d4c614fa254419cb13d5",
	"ablations/seed2":       "c3e3786fed39cd241da7ffcb38a6d234",
	"ablations/seed3":       "dac880bd862c7b097b9be91dfe09c21c",
	"corridor/seed1":        "71184f4e7c78990cb39d83d2ffe65bc2",
	"corridor/seed2":        "10b400c092c0af4cdc8c64e5872d3274",
	"corridor/seed3":        "a54dd5d3e7735fb0e13082cd53dd6108",
	"corridor-fed/seed1":    "34117b5762f3166c9e48b2db3d724b88",
	"corridor-fed/seed2":    "00994de52b9459438ab541d12c962d9f",
	"corridor-fed/seed3":    "ae7f7d7900618dee6a1af0f69c5e5d8c",
	"corridor-mmwave/seed1": "d8cea594b1a57c9fb9d326f52e2d0d82",
	"corridor-mmwave/seed2": "aa0ed37be76fa943ff846f11f484b657",
	"corridor-mmwave/seed3": "60eb2b1837fcb0110917f60f326c84ac",
}

// TestParallelSerialParity pins the tentpole guarantee: every figure the
// parallel runner produces must be bit-identical to the serial runner's,
// for several seeds. Quick variants keep the sweep bounded; they exercise
// the same fan-out/reassembly path as the full figures. The serial
// render must also match its goldenExperiments pin.
func TestParallelSerialParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure twice per seed")
	}
	for _, e := range Experiments() {
		run := e.Quick
		if run == nil {
			run = e.Run
		}
		t.Run(e.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				serial := render(run(Options{Seed: seed, Exec: Exec{Serial: true}}))
				parallel := render(run(Options{Seed: seed, Exec: Exec{Workers: 4}}))
				if serial != parallel {
					t.Errorf("seed %d: parallel result differs from serial\n%s",
						seed, firstDiff(serial, parallel))
				}
				key := fmt.Sprintf("%s/seed%d", e.Name, seed)
				if got, want := digest16(serial), goldenExperiments[key]; got != want {
					t.Errorf("%s drifted: want %q, got %q", key, want, got)
				}
			}
		})
	}
}
