"""Loss, optimizer, training loop, gradient checking, checkpoints."""
