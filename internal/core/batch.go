package core

import "dexa/internal/dataexample"

// BatchResult is the outcome of generating examples for one module in a
// batch run.
type BatchResult struct {
	ModuleID string
	Examples dataexample.Set
	Report   *Report
	Err      error
}
