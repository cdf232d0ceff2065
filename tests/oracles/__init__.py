"""Reference oracles: the sequential implementations the production
fast paths are tested against bitwise (looped trainer, per-table
embedding loop)."""
