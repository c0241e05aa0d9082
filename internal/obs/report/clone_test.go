package report

import (
	"reflect"
	"sort"
	"testing"
)

// references lists the field paths of typ that hold a slice, pointer,
// map, interface, channel or function, descending into structs.
func references(typ reflect.Type) []string {
	var refs []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path := prefix + f.Name
			ft := f.Type
			switch ft.Kind() {
			case reflect.Slice, reflect.Pointer, reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
				refs = append(refs, path)
				if ft.Kind() == reflect.Slice || ft.Kind() == reflect.Pointer {
					ft = ft.Elem()
				}
			}
			if ft.Kind() == reflect.Struct {
				walk(path+".", ft)
			}
		}
	}
	walk("", typ)
	sort.Strings(refs)
	return refs
}

// Clone copies every reference a Report holds. A field added later that
// holds a slice, pointer or map fails here until Clone copies it too.
func TestCloneCoversEveryReference(t *testing.T) {
	refs := references(reflect.TypeOf(Report{}))
	want := []string{"Activity", "Cores", "Energy", "Jobs", "Mem", "Topology", "Topology.PerPackage"}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("Report holds references %v; Clone copies %v", refs, want)
	}

	full := func() Report {
		return Report{
			Cycles:   7,
			Cores:    []CoreReport{{Core: 0, SAUtil: 0.5}},
			Jobs:     []JobReport{{Name: "j", End: 7}},
			Mem:      &MemReport{Reads: 1},
			Activity: &ActivityTotals{Cycles: 7},
			Energy:   &EnergyReport{TotalMilliJ: 1},
			Topology: &TopologyReport{Packages: 1, PerPackage: []PackageReport{{Package: 0}}},
		}
	}
	r := full()
	c := r.Clone()
	if !reflect.DeepEqual(c, r) {
		t.Fatalf("clone differs: %+v", c)
	}
	c.Cores[0].SAUtil = 9
	c.Jobs[0].End = 9
	c.Mem.Reads = 9
	c.Activity.Cycles = 9
	c.Energy.TotalMilliJ = 9
	c.Topology.Packages = 9
	c.Topology.PerPackage[0].Package = 9
	if !reflect.DeepEqual(r, full()) {
		t.Fatalf("mutating the clone changed the original: %+v", r)
	}
	if (Report{}).Clone().Cores != nil {
		t.Fatal("Clone turned a nil slice into an empty one")
	}
}

// ServeReport.Clone copies every reference a ServeReport holds, on the same
// terms as Report.Clone.
func TestServeCloneCoversEveryReference(t *testing.T) {
	refs := references(reflect.TypeOf(ServeReport{}))
	want := []string{"DecodeEnergy", "PerRequest", "PrefillEnergy", "Timeline"}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("ServeReport holds references %v; Clone copies %v", refs, want)
	}
	full := func() ServeReport {
		return ServeReport{
			Requests:      1,
			PrefillEnergy: &EnergyReport{TotalMilliJ: 1},
			DecodeEnergy:  &EnergyReport{TotalMilliJ: 2},
			PerRequest:    []ServeRequestReport{{ID: "r0", TTFTMs: 1}},
			Timeline:      []BatchSample{{Cycle: 1, Batch: 1}},
		}
	}
	r := full()
	c := r.Clone()
	if !reflect.DeepEqual(c, r) {
		t.Fatalf("clone differs: %+v", c)
	}
	c.PrefillEnergy.TotalMilliJ = 9
	c.DecodeEnergy.TotalMilliJ = 9
	c.PerRequest[0].TTFTMs = 9
	c.Timeline[0].Batch = 9
	if !reflect.DeepEqual(r, full()) {
		t.Fatalf("mutating the clone changed the original: %+v", r)
	}
}
