"""Bundled JSON schemas for the artifacts the CLI emits."""
