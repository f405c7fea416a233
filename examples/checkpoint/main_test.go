package main

import "testing"

// The example runs to the end: the world it checkpoints reopens and
// resumes byte-identical to the uninterrupted run (main exits otherwise).
func TestCheckpointExampleRuns(t *testing.T) { main() }
