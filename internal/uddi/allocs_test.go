//go:build !race

package uddi

import "testing"

// Publish allocation budgets on an in-memory registry. The race detector's
// instrumentation allocates on its own, hence the build tag.
//
//	SaveService (one binding, one tModel): service key, binding key, the
//	  bindings copy and the stored record.
//	SaveBusiness, SaveTModel: the key and the stored record.
//	newKey: the key string only.
func TestPublishAllocBudget(t *testing.T) {
	r := NewRegistry()
	biz, err := r.SaveBusiness(BusinessEntity{Name: "IU Community Grids Lab"})
	if err != nil {
		t.Fatal(err)
	}
	tm, err := r.SaveTModel(TModel{Name: "gce:BatchScriptGenerator"})
	if err != nil {
		t.Fatal(err)
	}
	svc := BusinessService{
		BusinessKey: biz.Key,
		Name:        "svc-00001",
		Description: "batch script generation",
		Bindings:    []BindingTemplate{{AccessPoint: "http://host-001.example.org/ssp/svc-00001", TModelKeys: []string{tm.Key}}},
	}
	cases := []struct {
		name   string
		budget float64
		fn     func()
	}{
		{"SaveService", 4, func() {
			if _, err := r.SaveService(svc); err != nil {
				t.Fatal(err)
			}
		}},
		{"SaveBusiness", 2, func() {
			if _, err := r.SaveBusiness(BusinessEntity{Name: "site-00001", Description: "computing center"}); err != nil {
				t.Fatal(err)
			}
		}},
		{"SaveTModel", 2, func() {
			if _, err := r.SaveTModel(TModel{Name: "gce:iface-00001", OverviewURL: "http://wsdl.example.org/iface-00001?wsdl"}); err != nil {
				t.Fatal(err)
			}
		}},
		{"newKey", 1, func() { _ = r.newKey("service", "svc-00001") }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(1000, c.fn); got > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, got, c.budget)
		}
	}
}
