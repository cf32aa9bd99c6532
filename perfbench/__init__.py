"""perfbench: the repo's one noise-bounded benchmark (see README.md)."""
