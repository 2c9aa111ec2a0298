"""Module tree: the substrate's analogue of ``torch.nn.Module``.

Design points that matter for LowDiff:

* **Layer-by-layer backward.**  ``backward`` runs layers in reverse order.
  The layer-wise gradient reuse that LowDiff+ piggybacks on (Fig.
  "Layer-wise gradient reuse") is delivered per layer, in that reverse
  order, by ``DataParallelTrainer.register_layer_gradient_hook``.
* **Stable dotted names.**  Checkpoints, compressed gradients and the
  reusing queue all key tensors by the dotted path assigned here, so a
  recovered model maps payloads back unambiguously.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.tensor.parameter import Parameter

class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # Attribute interception ---------------------------------------------------
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # Structure traversal -------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` pairs, depth-first, self first."""
        yield prefix, self
        for child_key, child in self._modules.items():
            child_prefix = f"{prefix}.{child_key}" if prefix else child_key
            yield from child.named_modules(child_prefix)

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)``, assigning stable names."""
        self._assign_names()
        for _, module in self.named_modules():
            for param in module._parameters.values():
                yield param.name, param

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def _assign_names(self, prefix: str = "") -> None:
        for key, param in self._parameters.items():
            param.name = f"{prefix}.{key}" if prefix else key
        for key, child in self._modules.items():
            child._assign_names(f"{prefix}.{key}" if prefix else key)

    # Parameter bookkeeping -----------------------------------------------------
    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for _, module in self.named_modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # State dict ---------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter value, keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values in place; raises on missing or mismatched entries."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {value.shape} "
                    f"vs model {param.data.shape}"
                )
            np.copyto(param.data, value)

    # Compute API ----------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """Ordered container; backward visits layers in reverse order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(layers):
            self._modules[str(index)] = layer
            object.__setattr__(self, f"_layer_{index}", layer)

    def append(self, layer: Module) -> None:
        index = len(self.layers)
        self.layers.append(layer)
        self._modules[str(index)] = layer

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output
