package model

import (
	"fmt"
	"sync"
	"testing"
)

// schemaModel is a model named name whose schema is the standard
// parameters plus one bounded parameter per extra name.
func schemaModel(name string, extra ...string) *Func {
	params := make([]Param, 0, len(extra))
	for _, p := range extra {
		params = append(params, Param{Name: p, Default: 1, Min: 0, Max: 10})
	}
	return &Func{
		Meta: Info{Name: name, Class: Computation, Params: WithStd(params...)},
		Fn:   func(Params) (*Estimate, error) { return &Estimate{}, nil },
	}
}

// TestRegistryOwnsSchemaRedefine: the schema Resolve returns is the one
// built when the model was registered, and re-registering the name with
// a different parameter list replaces it.  A rejected binding reads
// exactly as Evaluate words it.
func TestRegistryOwnsSchemaRedefine(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(schemaModel("eq", "a"))
	bind := Params{"a": 2, "b": 3}
	if _, err := r.Evaluate("eq", bind); err == nil {
		t.Fatal("binding b before the redefinition adds it should fail")
	}

	r.MustRegister(schemaModel("eq", "a", "b"))
	m, s, ok := r.Resolve("eq")
	if !ok {
		t.Fatal("Resolve after Register: not found")
	}
	if _, ok := s.Lookup("b"); !ok {
		t.Fatal("the redefined schema lacks the added parameter")
	}
	if _, err := s.Evaluate(m, bind); err != nil {
		t.Fatalf("binding the added parameter: %v", err)
	}

	dropped := schemaModel("eq", "a")
	r.MustRegister(dropped)
	_, got := r.Evaluate("eq", bind)
	_, want := Evaluate(dropped, bind)
	if got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("after dropping b: registry error %v, Evaluate error %v", got, want)
	}
	if wantText := `eq: unknown parameter "b"`; got.Error() != wantText {
		t.Errorf("error text %q, want %q", got, wantText)
	}
}

// TestRegistryOwnsSchemaUnregister: Unregister drops the model and its
// schema together.
func TestRegistryOwnsSchemaUnregister(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(schemaModel("eq", "a"))
	gen := r.Generation()
	if !r.Unregister("eq") {
		t.Fatal("Unregister reported the name absent")
	}
	if r.Generation() != gen+1 {
		t.Errorf("generation %d after Unregister, want %d", r.Generation(), gen+1)
	}
	if m, s, ok := r.Resolve("eq"); ok || m != nil || s != nil {
		t.Errorf("Resolve after Unregister = %v, %v, %v; want not found", m, s, ok)
	}
}

// TestRegistryOwnsSchemaRaced: Resolve racing Register and Unregister
// always sees a model together with its own schema.
func TestRegistryOwnsSchemaRaced(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			r.MustRegister(schemaModel("eq", fmt.Sprintf("p%d", i%3)))
			if i%7 == 0 {
				r.Unregister("eq")
			}
		}
	}()
	for i := 0; i < 500; i++ {
		m, s, ok := r.Resolve("eq")
		if !ok {
			continue
		}
		if got, want := len(s.Params()), len(m.Info().Params); got != want {
			t.Fatalf("schema has %d params, its model %d", got, want)
		}
		if _, ok := s.Lookup(m.Info().Params[0].Name); !ok {
			t.Fatalf("schema %v is not its model's", s.Params())
		}
	}
	wg.Wait()
}

// TestSchemaLookupPointsIntoParams: Lookup hands out the schema's own
// Param, not a copy.
func TestSchemaLookupPointsIntoParams(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(schemaModel("eq", "a", "b"))
	_, s, _ := r.Resolve("eq")
	params := s.Params()
	for i := range params {
		p, ok := s.Lookup(params[i].Name)
		if !ok || p != &params[i] {
			t.Errorf("Lookup(%q) = %p, want %p", params[i].Name, p, &params[i])
		}
	}
	if p, ok := s.Lookup("nope"); ok || p != nil {
		t.Errorf("Lookup of an unknown name = %v, %v", p, ok)
	}
}
