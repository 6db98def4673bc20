"""Tagged lambda calculus, its abstract machine, Boolean-algebra model
checking, a bounded pole, a finite-rank lattice model and a typing checker."""
