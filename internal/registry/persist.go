package registry

import (
	"encoding/json"
	"fmt"
	"io"

	"dexa/internal/dataexample"
	"dexa/internal/module"
	"dexa/internal/typesys"
)

// Binder supplies an executor for a module ID after Load. Returning nil
// leaves the module unbound (its signature and examples remain usable for
// matching, but it cannot be invoked).
type Binder func(id string) module.Executor

type wireParam struct {
	Name     string          `json:"name"`
	Struct   string          `json:"struct"`
	Semantic string          `json:"semantic,omitempty"`
	Optional bool            `json:"optional,omitempty"`
	Default  json.RawMessage `json:"default,omitempty"`
}

type wireModule struct {
	ID          string      `json:"id"`
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Form        string      `json:"form"`
	Kind        int         `json:"kind"`
	Provider    string      `json:"provider,omitempty"`
	Inputs      []wireParam `json:"inputs"`
	Outputs     []wireParam `json:"outputs"`
}

type wireHealth struct {
	ConsecutiveFailures int    `json:"consecutiveFailures,omitempty"`
	TotalFailures       int    `json:"totalFailures,omitempty"`
	TotalSuccesses      int    `json:"totalSuccesses,omitempty"`
	LastError           string `json:"lastError,omitempty"`
	AutoRetired         bool   `json:"autoRetired,omitempty"`
}

type wireEntry struct {
	Module    wireModule      `json:"module"`
	Examples  dataexample.Set `json:"examples,omitempty"`
	Available bool            `json:"available"`
	// Health is persisted so a reloaded registry remembers provider decay
	// observed in earlier runs; absent in files from before health
	// tracking, which load with a zero health record.
	Health *wireHealth `json:"health,omitempty"`
}

type wireRegistry struct {
	Version int         `json:"version"`
	Entries []wireEntry `json:"entries"`
}

const persistVersion = 1

// Save writes the registry (signatures, annotations, examples,
// availability — not executors) as JSON.
func (r *Registry) Save(w io.Writer) error {
	r.mu.RLock()
	doc := wireRegistry{Version: persistVersion}
	for _, e := range r.ordered {
		wm, err := moduleToWire(e.Module)
		if err != nil {
			r.mu.RUnlock()
			return err
		}
		we := wireEntry{Module: wm, Examples: e.Examples, Available: e.Available}
		if e.Health != (Health{}) {
			we.Health = &wireHealth{
				ConsecutiveFailures: e.Health.ConsecutiveFailures,
				TotalFailures:       e.Health.TotalFailures,
				TotalSuccesses:      e.Health.TotalSuccesses,
				LastError:           e.Health.LastError,
				AutoRetired:         e.Health.AutoRetired,
			}
		}
		doc.Entries = append(doc.Entries, we)
	}
	r.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Load reads a registry saved by Save, rebinding executors through binder
// (which may be nil to leave every module unbound).
func Load(rd io.Reader, binder Binder) (*Registry, error) {
	var doc wireRegistry
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return nil, fmt.Errorf("registry: decoding: %w", err)
	}
	if doc.Version != persistVersion {
		return nil, fmt.Errorf("registry: unsupported version %d", doc.Version)
	}
	r := New()
	for _, we := range doc.Entries {
		m, err := moduleFromWire(we.Module)
		if err != nil {
			return nil, err
		}
		if binder != nil {
			if exec := binder(m.ID); exec != nil {
				m.Bind(exec)
			}
		}
		if err := r.Register(m); err != nil {
			return nil, err
		}
		r.entries[m.ID].Examples = we.Examples
		r.entries[m.ID].Available = we.Available
		if we.Health != nil {
			r.entries[m.ID].Health = Health{
				ConsecutiveFailures: we.Health.ConsecutiveFailures,
				TotalFailures:       we.Health.TotalFailures,
				TotalSuccesses:      we.Health.TotalSuccesses,
				LastError:           we.Health.LastError,
				AutoRetired:         we.Health.AutoRetired,
			}
		}
	}
	return r, nil
}

func moduleToWire(m *module.Module) (wireModule, error) {
	wm := wireModule{
		ID: m.ID, Name: m.Name, Description: m.Description,
		Form: m.Form.String(), Kind: int(m.Kind), Provider: m.Provider,
	}
	var err error
	if wm.Inputs, err = paramsToWire(m.ID, m.Inputs); err != nil {
		return wireModule{}, err
	}
	if wm.Outputs, err = paramsToWire(m.ID, m.Outputs); err != nil {
		return wireModule{}, err
	}
	return wm, nil
}

func paramsToWire(moduleID string, ps []module.Parameter) ([]wireParam, error) {
	out := make([]wireParam, len(ps))
	for i, p := range ps {
		wp := wireParam{Name: p.Name, Struct: p.Struct.String(), Semantic: p.Semantic, Optional: p.Optional}
		if p.Default != nil {
			data, err := typesys.MarshalValue(p.Default)
			if err != nil {
				return nil, fmt.Errorf("registry: module %s parameter %s default: %w", moduleID, p.Name, err)
			}
			wp.Default = data
		}
		out[i] = wp
	}
	return out, nil
}

func moduleFromWire(wm wireModule) (*module.Module, error) {
	m := &module.Module{
		ID: wm.ID, Name: wm.Name, Description: wm.Description,
		Kind: module.Kind(wm.Kind), Provider: wm.Provider,
	}
	switch wm.Form {
	case "local":
		m.Form = module.FormLocal
	case "rest":
		m.Form = module.FormREST
	case "soap":
		m.Form = module.FormSOAP
	default:
		return nil, fmt.Errorf("registry: module %s: unknown form %q", wm.ID, wm.Form)
	}
	var err error
	if m.Inputs, err = paramsFromWire(wm.ID, wm.Inputs); err != nil {
		return nil, err
	}
	if m.Outputs, err = paramsFromWire(wm.ID, wm.Outputs); err != nil {
		return nil, err
	}
	return m, nil
}

func paramsFromWire(moduleID string, wps []wireParam) ([]module.Parameter, error) {
	out := make([]module.Parameter, len(wps))
	for i, wp := range wps {
		st, err := typesys.Parse(wp.Struct)
		if err != nil {
			return nil, fmt.Errorf("registry: module %s parameter %s: %w", moduleID, wp.Name, err)
		}
		p := module.Parameter{Name: wp.Name, Struct: st, Semantic: wp.Semantic, Optional: wp.Optional}
		if len(wp.Default) > 0 {
			v, err := typesys.UnmarshalValue(wp.Default)
			if err != nil {
				return nil, fmt.Errorf("registry: module %s parameter %s default: %w", moduleID, wp.Name, err)
			}
			p.Default = v
		}
		out[i] = p
	}
	return out, nil
}
