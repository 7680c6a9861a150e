package model

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a thread-safe name → Model table: one PowerPlay library
// namespace.  The web server holds one registry per site; remote
// libraries are mounted into it under a prefix.
//
// The registry owns each model's descriptor: Register reads Info once
// and builds the model's Schema from it, and every compiled plan and
// interpreter call that resolves the name shares that one copy.  A
// model's Info must therefore not change while it is registered; a
// model whose description changes (an edited equation, a refreshed
// remote proxy) is registered again as a new value.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*registered
	gen    atomic.Uint64
}

// registered is one registry entry: the model with the descriptor and
// schema computed when it was registered.
type registered struct {
	m      Model
	info   Info
	schema *Schema
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*registered)}
}

// Register adds a model under its Info().Name.  Re-registering a name
// replaces the previous model (user-defined models may be edited).
func (r *Registry) Register(m Model) error {
	info := m.Info()
	if info.Name == "" {
		return fmt.Errorf("model has empty name")
	}
	e := &registered{m: m, info: info, schema: newSchema(info.Name, info.Params)}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.models[info.Name] = e
	r.gen.Add(1)
	return nil
}

// MustRegister is Register that panics on error, for library init code.
func (r *Registry) MustRegister(m Model) {
	if err := r.Register(m); err != nil {
		panic(err)
	}
}

// Unregister removes a model; it reports whether the name was present.
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.models[name]
	delete(r.models, name)
	if ok {
		r.gen.Add(1)
	}
	return ok
}

// Generation returns a counter that advances on every Register and
// Unregister: a cheap staleness check for caches keyed to model
// lookups (the sheet plan cache, the web read memo).
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// Lookup finds a model by name.
func (r *Registry) Lookup(name string) (Model, bool) {
	m, _, ok := r.Resolve(name)
	return m, ok
}

// Resolve finds a model by name together with the schema Register
// built for it, both read under one lock.
func (r *Registry) Resolve(name string) (Model, *Schema, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return nil, nil, false
	}
	return e.m, e.schema, true
}

// Names returns all registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByClass returns the sorted names of models in the given class.
func (r *Registry) ByClass(c Class) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var names []string
	for n, e := range r.models {
		if e.info.Class == c {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// Evaluate looks up a model and evaluates it with validation.
func (r *Registry) Evaluate(name string, p Params) (*Estimate, error) {
	m, schema, ok := r.Resolve(name)
	if !ok {
		return nil, fmt.Errorf("no model named %q in library", name)
	}
	return schema.Evaluate(m, p)
}

// Func adapts an evaluation function plus an Info into a Model: the
// quickest way to define built-in characterized cells.
type Func struct {
	// Meta is the descriptor returned by Info.
	Meta Info
	// Fn computes the estimate.
	Fn func(p Params) (*Estimate, error)
}

// Info returns the descriptor.
func (f *Func) Info() Info { return f.Meta }

// Evaluate runs the wrapped function.
func (f *Func) Evaluate(p Params) (*Estimate, error) { return f.Fn(p) }
