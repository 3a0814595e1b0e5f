"""Hard labels of a trained head; the tests' reference for scoring."""

import numpy as np

from graphain.classifier import class_logits, softmax_with_log


def predict(h, w):
    """Hard labels (argmax, ties to the lower class) and the probability rows
    of the head whose (d, C) weights are ``w``."""
    logits = class_logits(np.ascontiguousarray(h.T), w)
    probs = softmax_with_log(logits)[0]
    return probs.argmax(axis=0), probs.T
