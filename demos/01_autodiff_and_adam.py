"""Reverse-mode autodiff and Adam on a tiny problem.

Builds a small computation graph, checks one gradient against central
finite differences, then fits a two-class output layer with Adam.
"""

import numpy as np

from typovec import autograd as ag
from typovec.autograd import Parameter, backward
from typovec.optim import AdamState, adam_step

rng = np.random.default_rng(0)

# A scalar function of a 3-vector: loss = sum(sigmoid(w * x))
w = Parameter("w", np.array([0.2, -0.4, 0.8]))
x = np.array([1.0, 2.0, 3.0])

loss = ag.reduce_sum(ag.sigmoid(ag.mul(w.node(), ag.constant(x))))
backward(loss)
print("autodiff gradient:", w.grad)

h = 1e-5
fd = np.zeros(3)
for i in range(3):
    for sign in (+1, -1):
        w.value[i] += sign * h
        value = float(ag.reduce_sum(ag.sigmoid(ag.mul(w.node(), ag.constant(x)))).value)
        fd[i] += sign * value / (2 * h)
        w.value[i] -= sign * h
print("finite differences:", fd)
print("max abs diff:      ", np.max(np.abs(w.grad - fd)))

# Fit y = 1[x0 + x1 > 0] with a two-class output layer trained by Adam.
X = rng.uniform(-1, 1, size=(64, 2))
y = (X.sum(axis=1) > 0).astype(int)
theta = Parameter("theta", np.zeros((2, 2)))  # one column of weights per class
bias = ag.constant(np.zeros(2))
state = AdamState()
for step in range(400):
    theta.zero_grad()
    summed = ag.softmax_cross_entropy(ag.constant(X), y, np.ones(64), theta.node(), bias)
    loss = ag.scale(summed, 1.0 / 64)
    backward(loss)
    adam_step([theta], lr=0.05, state=state)
    if step % 100 == 0:
        print(f"step {step:3d}  loss/example {float(loss.value):.4f}")

accuracy = float(np.mean(np.argmax(X @ theta.value, axis=1) == y))
print("final training accuracy:", accuracy)
