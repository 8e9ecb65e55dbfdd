"""Planning engine: state types and the iterative reasoning loop."""
