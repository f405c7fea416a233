package main

import "testing"

// The example runs to the end: its hand-placed world passes the engine's
// ingress rules, and both engines agree on it (main exits otherwise).
func TestQuickstartRuns(t *testing.T) { main() }
