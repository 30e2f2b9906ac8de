"""Enhancement network: configuration, parameters, forward pass, gradients."""
