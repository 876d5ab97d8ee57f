"""End-to-end and per-layer benchmark of the BBAL reproduction (see README.md)."""
