"""The repository's benchmark: see bench/README.md and bench/run.py."""
