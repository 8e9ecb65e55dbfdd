"""Knowledge-graph backends: in-memory fixtures and SPARQL endpoints."""
