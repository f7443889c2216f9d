"""Safe-zone protection game: noisy pursuit simulator and margin-based
defender guidance."""
