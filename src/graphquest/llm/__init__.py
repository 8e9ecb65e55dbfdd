"""Language-model backends, structured-output parsing, and accounting."""
