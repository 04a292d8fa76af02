"""Slow references written from the paper's text, used as test oracles."""
