"""Scene construction and I/O: WAV, tensor files, mixing, synthesis, manifests."""
