"""stabkit benchmark: see README.md."""
