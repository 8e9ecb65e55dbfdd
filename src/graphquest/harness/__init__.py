"""Evaluation harness: datasets, metrics, and batch runs."""
