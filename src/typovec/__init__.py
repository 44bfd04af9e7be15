"""Per-language vector representations from multilingual LSTM models,
with binary typological feature prediction on top of them.

The package is organized as a numpy library:

- :mod:`typovec.corpus`: registry / parallel-corpus loading and preprocessing
- :mod:`typovec.bpe`: joint byte-pair encoding and the shared vocabulary
- :mod:`typovec.autograd`: dense float64 tensors with reverse-mode autodiff
- :mod:`typovec.optim`: Adam and gradient clipping
- :mod:`typovec.models` / :mod:`typovec.training`: LSTM language model and
  many-to-one translation model
- :mod:`typovec.vectors`: LMVec / MTVec / MTCell / MTBoth extraction
- :mod:`typovec.typology`: feature matrix, geodesic + genetic distances, k-NN
- :mod:`typovec.predict`: per-feature logistic regression, cross-validation,
  paired bootstrap, cell-trajectory export
- :mod:`typovec.synth`: synthetic mini-languages with known word order
- :mod:`typovec.config`: pipeline, training and k-NN settings, method and
  category names, the key=value codec
- :mod:`typovec.report`: tables and result TSVs
- :mod:`typovec.cli`: pipeline orchestration

Submodules load on first use. Importing the package registers every
submodule except ``cli`` in ``sys.modules``, and as a package attribute,
through :class:`importlib.util.LazyLoader`; a module's code runs when one of
its attributes is first read. Besides ``__version__`` the package defines
no names of its own: callers import them from the submodules. Each CLI
stage runs in its own process, so it compiles and imports only the modules
it uses: ``report`` loads no numpy, ``baseline`` and ``bpe-learn`` no
models. Every submodule is still in ``sys.modules``, for tools that walk
it. ``from typovec import bpe`` keeps a module lazy; ``import typovec.bpe``
loads it. ``cli`` is imported as usual: ``python -m typovec.cli`` runs it
as ``__main__``, and a lazy ``typovec.cli`` entry would make runpy warn and
run the module twice. Before Python 3.12.3, two threads that first read a
module at the same time can both run it; a threaded caller imports what it
needs before it starts its threads.
"""

__version__ = "0.1.0"

import importlib.util
import sys


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in ("autograd", "bpe", "checkpoint", "config", "corpus", "models", "optim", "predict",
              "report", "synth", "training", "typology", "vectors"):
    globals()[_name] = _register_lazily(_name)
