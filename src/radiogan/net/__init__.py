"""Hand-written neural-net engine: layers, backprop, Adam, checkpoints."""
