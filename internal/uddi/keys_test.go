package uddi

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// oldKey is the original fmt-based key formula, kept as the oracle for the
// allocation-lean mintKey.
func oldKey(kind string, seq int64, name string) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%d/%s", kind, seq, name)))
	h := hex.EncodeToString(sum[:16])
	return fmt.Sprintf("uuid:%s-%s-%s-%s-%s", h[0:8], h[8:12], h[12:16], h[16:20], h[20:32])
}

// Registry keys appear in WAL logs, golden files and recorded experiments,
// so the derivation documented on newKey is a compatibility contract. These
// vectors were produced by the original fmt-based formula (oldKey) and
// must never change.
var keyGoldens = []struct {
	kind string
	seq  int64
	name string
	want string
}{
	{"business", 1, "IU Community Grids Lab", "uuid:795dc429-1b3e-68a5-95fe-06cedcc64d10"},
	{"tmodel", 2, "gce:BatchScriptGenerator", "uuid:79e742fa-24fb-559b-98b9-2e510b7575f2"},
	{"service", 3, "IU Batch Script Generator", "uuid:c3b84b28-2174-202d-d251-cb5af59577a4"},
	// A binding key's name part is "<service name>/<access point>".
	{"binding", 4, "IU Batch Script Generator/http://gateway.iu.edu/soap/bsg", "uuid:e6cd6cbc-f85e-6329-87e1-3ea2615708c4"},
	{"business", 7, "", "uuid:f03ea8dc-48d2-d9a6-62bb-c598c0488659"},
	{"service", 42, "Grid-Portal Ωμέγα 网格服务", "uuid:ab79f3e1-df4a-9ab2-9de9-82a3a63b698d"},
	// 300 bytes: longer than any fixed input buffer an implementation keeps
	// on the stack.
	{"tmodel", 9, strings.Repeat("long-name-", 30), "uuid:76a1f976-ab57-fa2c-9173-dd8660211d36"},
	{"binding", 1000000, "svc-00001/http://host-001.example.org/ssp/svc-00001", "uuid:8a0bc506-cdcf-4b9f-c0aa-d6e22f554bd8"},
	{"business", 9223372036854775807, "max", "uuid:e3ada0c3-3bb9-455b-95c0-eef77b500ae5"},
}

func TestKeyGoldenVectors(t *testing.T) {
	for _, g := range keyGoldens {
		r := NewRegistry()
		r.seq.Store(g.seq - 1)
		if got := r.newKey(g.kind, g.name); got != g.want {
			t.Errorf("newKey(%q) at seq %d = %s, want %s", g.kind, g.seq, got, g.want)
		}
	}
}

// TestKeyGoldenPublish checks the same vectors through the publish API,
// which builds the binding key's name part itself.
func TestKeyGoldenPublish(t *testing.T) {
	r := NewRegistry()
	biz, err := r.SaveBusiness(BusinessEntity{Name: "IU Community Grids Lab"})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := r.SaveTModel(TModel{Name: "gce:BatchScriptGenerator"})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := r.SaveService(BusinessService{
		BusinessKey: biz.Key,
		Name:        "IU Batch Script Generator",
		Bindings:    []BindingTemplate{{AccessPoint: "http://gateway.iu.edu/soap/bsg", TModelKeys: []string{tm.Key}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range []string{biz.Key, tm.Key, svc.Key, svc.Bindings[0].Key} {
		if want := keyGoldens[i].want; got != want {
			t.Errorf("publish %d (%s) key = %s, want %s", i, keyGoldens[i].kind, got, want)
		}
	}
}

// TestKeyDifferential compares mintKey with the fmt oracle on random kinds,
// sequence numbers and names, including names that straddle the stack
// buffer and the two-part binding form.
func TestKeyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []string{"business", "tmodel", "service", "binding"}
	alphabet := []rune("abcXYZ09 -/:.?&<>éΩ网\x00\t")
	randName := func() string {
		n := rng.Intn(keyStackLen + 40)
		if rng.Intn(20) == 0 {
			n = rng.Intn(4 * keyStackLen)
		}
		rs := make([]rune, n)
		for i := range rs {
			rs[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(rs)
	}
	for i := 0; i < 20000; i++ {
		kind := kinds[rng.Intn(len(kinds))]
		var seq int64
		switch rng.Intn(3) {
		case 0:
			seq = int64(rng.Intn(1000))
		case 1:
			seq = rng.Int63n(1 << 40)
		default:
			seq = rng.Int63()
		}
		name := randName()
		if got, want := mintKey(kind, seq, name), oldKey(kind, seq, name); got != want {
			t.Fatalf("mintKey(%q, %d, %q) = %s, want %s", kind, seq, name, got, want)
		}
		svc, ap := randName(), randName()
		if got, want := mintKey("binding", seq, svc, ap), oldKey("binding", seq, svc+"/"+ap); got != want {
			t.Fatalf("binding key for %q/%q at seq %d = %s, want %s", svc, ap, seq, got, want)
		}
	}
}
