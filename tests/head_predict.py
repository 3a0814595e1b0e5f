"""Hard labels of a trained head; the tests' reference for scoring."""

from graphain.classifier import _softmax


def predict(h, w):
    """Hard labels (argmax, ties to the lower class) and the probability rows
    of the head whose (d, C) weights are ``w``."""
    logits = h @ w
    probs = _softmax(logits, logits)[0]
    return probs.argmax(axis=1), probs
