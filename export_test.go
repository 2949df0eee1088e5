package pipemare

import "pipemare/internal/core"

// PendingJoins reports how many accepted joiners a trainer has parked
// until its next minibatch boundary. Elastic tests wait on it before
// Run, so every joiner is admitted inside the run rather than racing its
// last boundary.
var PendingJoins = core.PendingJoins
