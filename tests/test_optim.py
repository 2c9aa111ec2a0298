"""Tests for optimizers: update math, state round-trips, replayability."""

import math

import numpy as np
import pytest

from repro.optim import Adam, SGD
from repro.tensor.layers import Linear
from repro.tensor.parameter import Parameter
from repro.utils.rng import Rng


def make_params(values):
    return [Parameter(np.asarray(v, dtype=np.float64), name=f"p{i}")
            for i, v in enumerate(values)]


class TestSGD:
    def test_plain_update(self):
        params = make_params([[1.0, 2.0]])
        opt = SGD(params, lr=0.1)
        opt.step_with({"p0": np.array([1.0, -1.0])})
        np.testing.assert_allclose(params[0].data, [0.9, 2.1])

    def test_momentum_accumulates(self):
        params = make_params([[0.0]])
        opt = SGD(params, lr=1.0, momentum=0.5)
        grad = {"p0": np.array([1.0])}
        opt.step_with(grad)   # v=1, x=-1
        opt.step_with(grad)   # v=1.5, x=-2.5
        np.testing.assert_allclose(params[0].data, [-2.5])

    def test_weight_decay(self):
        params = make_params([[10.0]])
        opt = SGD(params, lr=0.1, weight_decay=0.1)
        opt.step_with({"p0": np.array([0.0])})
        np.testing.assert_allclose(params[0].data, [10.0 - 0.1 * 1.0])

    def test_linear_in_gradient_without_momentum(self):
        # k steps with gradient g == 1 step with k*g: the associativity
        # parallel recovery exploits.
        params_a = make_params([[1.0, -1.0]])
        params_b = make_params([[1.0, -1.0]])
        g = np.array([0.3, 0.7])
        opt_a = SGD(params_a, lr=0.01)
        opt_b = SGD(params_b, lr=0.01)
        for _ in range(5):
            opt_a.step_with({"p0": g})
        opt_b.step_with({"p0": 5 * g})
        np.testing.assert_allclose(params_a[0].data, params_b[0].data)

    def test_state_roundtrip(self):
        params = make_params([[1.0, 2.0]])
        opt = SGD(params, lr=0.1, momentum=0.9)
        opt.step_with({"p0": np.array([1.0, 1.0])})
        state = opt.state_dict()
        params2 = make_params([[1.0, 2.0]])
        opt2 = SGD(params2, lr=0.5, momentum=0.9)
        opt2.load_state_dict(state)
        assert opt2.lr == 0.1 and opt2.step_count == 1
        opt.step_with({"p0": np.array([1.0, 1.0])})
        opt2.step_with({"p0": np.array([1.0, 1.0])})
        np.testing.assert_array_equal(opt._velocity["p0"], opt2._velocity["p0"])

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD(make_params([[1.0]]), lr=0.1, momentum=1.0)


class TestAdam:
    def test_first_step_matches_reference(self):
        params = make_params([[1.0]])
        opt = Adam(params, lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        grad = np.array([2.0])
        opt.step_with({"p0": grad})
        # After one step: m = 0.1*g, v = 0.001*g^2, bias-corrected update.
        m = 0.1 * 2.0
        v = 0.001 * 4.0
        step_size = 0.1 * math.sqrt(1 - 0.999) / (1 - 0.9)
        expected = 1.0 - step_size * m / (math.sqrt(v) + 1e-8)
        np.testing.assert_allclose(params[0].data, [expected])

    def test_update_invariant_to_gradient_scale_asymptotically(self):
        # Adam's per-coordinate normalization: big and small constant
        # gradients yield (nearly) the same step magnitude.
        big, small = make_params([[0.0]]), make_params([[0.0]])
        Adam(big, lr=0.1).step_with({"p0": np.array([1000.0])})
        Adam(small, lr=0.1).step_with({"p0": np.array([0.001])})
        np.testing.assert_allclose(big[0].data, small[0].data, rtol=2e-2)

    def test_replay_is_bit_exact(self):
        # The Finding-1 invariant: same state + same gradients => same
        # trajectory, bit for bit.
        rng = Rng(0)
        grads = [rng.normal(size=(3,)) for _ in range(20)]
        params_a = make_params([np.zeros(3)])
        params_b = make_params([np.zeros(3)])
        opt_a = Adam(params_a, lr=0.01)
        opt_b = Adam(params_b, lr=0.01)
        for g in grads:
            opt_a.step_with({"p0": g})
        for g in grads:
            opt_b.step_with({"p0": g})
        np.testing.assert_array_equal(params_a[0].data, params_b[0].data)

    def test_state_roundtrip_resumes_exactly(self):
        rng = Rng(1)
        grads = [rng.normal(size=(4,)) for _ in range(10)]
        params = make_params([np.ones(4)])
        opt = Adam(params, lr=0.05)
        for g in grads[:5]:
            opt.step_with({"p0": g})
        saved_state = opt.state_dict()
        saved_params = params[0].data.copy()
        for g in grads[5:]:
            opt.step_with({"p0": g})
        final = params[0].data.copy()
        # Restore and replay the second half.
        params2 = make_params([saved_params])
        opt2 = Adam(params2, lr=0.05)
        opt2.load_state_dict(saved_state)
        for g in grads[5:]:
            opt2.step_with({"p0": g})
        np.testing.assert_array_equal(params2[0].data, final)

    def test_state_bytes_is_two_psi(self):
        model = Linear(10, 10, rng=Rng(0))
        opt = Adam(model.parameters(), lr=0.1)
        psi_bytes = sum(p.nbytes for p in model.parameters())
        assert opt.state_bytes() == 2 * psi_bytes

    def test_type_mismatch_on_load(self):
        params = make_params([[1.0]])
        sgd_state = SGD(make_params([[1.0]]), lr=0.1).state_dict()
        with pytest.raises(ValueError):
            Adam(params, lr=0.1).load_state_dict(sgd_state)

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            Adam(make_params([[1.0]]), lr=-1)
        with pytest.raises(ValueError):
            Adam(make_params([[1.0]]), lr=0.1, betas=(1.0, 0.9))
        with pytest.raises(ValueError):
            Adam(make_params([[1.0]]), lr=0.1, eps=0)


class TestOptimizerValidation:
    def test_step_with_unknown_name(self):
        opt = SGD(make_params([[1.0]]), lr=0.1)
        with pytest.raises(KeyError):
            opt.step_with({"bogus": np.array([1.0])})

    def test_step_with_missing_name(self):
        opt = SGD(make_params([[1.0], [2.0]]), lr=0.1)
        with pytest.raises(KeyError):
            opt.step_with({"p0": np.array([1.0])})

    def test_step_with_shape_mismatch(self):
        opt = SGD(make_params([[1.0, 2.0]]), lr=0.1)
        with pytest.raises(ValueError):
            opt.step_with({"p0": np.array([1.0])})

    def test_step_without_backward_raises(self):
        opt = SGD(make_params([[1.0]]), lr=0.1)
        with pytest.raises(RuntimeError):
            opt.step()

    def test_duplicate_names_rejected(self):
        a = Parameter(np.ones(1), name="same")
        b = Parameter(np.ones(1), name="same")
        with pytest.raises(ValueError):
            SGD([a, b], lr=0.1)

    def test_frozen_params_excluded(self):
        a = Parameter(np.ones(1), name="a")
        b = Parameter(np.ones(1), name="b", requires_grad=False)
        opt = SGD([a, b], lr=0.1)
        assert opt.param_names == ["a"]


class TestSchedulers:
    """A learning-rate schedule is the caller's: ``lr`` is a plain field
    that the next step reads, and ``state_dict`` carries it with
    ``step_count``."""

    def make_opt(self):
        return SGD(make_params([[1.0]]), lr=1.0)

    def test_constant(self):
        opt = self.make_opt()
        for _ in range(3):
            opt.step_with({"p0": np.array([1.0])})
        assert opt.lr == 1.0

    def test_step_lr(self):
        """The next step reads the lr the caller set."""
        params = make_params([[1.0]])
        opt = SGD(params, lr=1.0)
        opt.lr = 0.1
        opt.step_with({"p0": np.array([1.0])})
        assert params[0].data[0] == pytest.approx(0.9)

    def test_cosine(self):
        """Adam's step is linear in the lr it reads (no weight decay)."""
        moved = []
        for lr in (1.0, 0.5):
            params = make_params([[1.0, -2.0]])
            opt = Adam(params, lr=1.0)
            opt.step_with({"p0": np.array([0.3, -0.7])})
            before = params[0].data.copy()
            opt.lr = lr
            opt.step_with({"p0": np.array([0.1, 0.4])})
            moved.append(params[0].data - before)
        np.testing.assert_allclose(moved[1], 0.5 * moved[0], rtol=1e-12)

    def test_warmup(self):
        opt = self.make_opt()
        for step in range(4):
            opt.lr = (step + 1) / 10
            opt.step_with({"p0": np.array([0.0])})
        state = opt.state_dict()
        assert state["lr"] == 0.4 and state["step_count"] == 4

    def test_warmup_into_cosine(self):
        opt = self.make_opt()
        opt.lr = 0.25
        opt.step_with({"p0": np.array([1.0])})
        resumed = self.make_opt()
        resumed.load_state_dict(opt.state_dict())
        assert (resumed.lr, resumed.step_count) == (0.25, 1)

    def test_schedule_is_pure_function_of_step(self):
        """The same lr sequence over the same gradients gives the same bits."""
        runs = []
        for _ in range(2):
            params = make_params([[1.0, 2.0]])
            opt = Adam(params, lr=1.0)
            for step in range(6):
                opt.lr = 0.5 ** step
                opt.step_with({"p0": np.array([0.1 * step, -0.2])})
            runs.append(params[0].data)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_step_pushes_lr_into_optimizer(self):
        opt = self.make_opt()
        opt.step_with({"p0": np.array([0.0])})
        opt.step_with({"p0": np.array([0.0])})
        assert (opt.step_count, opt.lr) == (2, 1.0)

    def test_invalid_scheduler_args(self):
        for lr in (0.0, -1.0):
            with pytest.raises(ValueError):
                SGD(make_params([[1.0]]), lr=lr)

    def test_explicit_base_lr_overrides_capture(self):
        assert SGD(make_params([[1.0]]), lr=0.25).lr == 0.25


class TestResumeMidWarmup:
    """A run that changes ``lr`` mid-run resumes exactly: ``state_dict``
    carries the live lr and ``step_count``, and a caller-side schedule
    keyed on ``step_count`` continues where the crashed run stopped."""

    STEPS = 30
    CRASH_AT = 4  # mid-warmup

    @staticmethod
    def make_opt():
        return SGD(make_params([[1.0]]), lr=1.0)

    @staticmethod
    def lr_at(step):
        """Ten warmup steps, then cosine over twenty."""
        if step < 10:
            return (step + 1) / 10
        return 0.5 * (1 + math.cos(math.pi * min(step - 10, 20) / 20))

    @classmethod
    def drive(cls, opt, steps):
        lrs = []
        for _ in range(steps):
            opt.lr = cls.lr_at(opt.step_count)
            lrs.append(opt.lr)
            opt.step_with({"p0": np.array([0.5])})
        return lrs

    def test_rebuilt_schedule_resumes_exactly(self):
        opt = self.make_opt()
        lrs = self.drive(opt, self.STEPS)

        live = self.make_opt()
        self.drive(live, self.CRASH_AT)
        checkpoint = live.state_dict()
        assert checkpoint["lr"] != 1.0  # live lr is warmup-scaled

        resumed = SGD(make_params([live.parameters()[0].data.copy()]), lr=1.0)
        resumed.load_state_dict(checkpoint)
        assert (resumed.lr, resumed.step_count) == (checkpoint["lr"],
                                                   self.CRASH_AT)
        resumed_lrs = self.drive(resumed, self.STEPS - self.CRASH_AT)
        assert resumed_lrs == lrs[self.CRASH_AT:]  # bit-exact
        np.testing.assert_array_equal(resumed.parameters()[0].data,
                                      opt.parameters()[0].data)

    def test_recovery_replay_resumes_warmup_lr(self):
        """Same contract through the real recovery path: a full checkpoint
        saved mid-warmup, recovered with ``serial_recover``, the schedule
        resumed from the recovered ``step_count``."""
        from repro.core.recovery import serial_recover
        from repro.storage import CheckpointStore, InMemoryBackend
        from repro.tensor.models import MLP

        def build():
            model = MLP(4, [8], 2, rng=Rng(0))
            return model, SGD(model.parameters(), lr=1.0)

        def grads_at(model, step):
            rng = Rng(11).child(step)
            return {name: rng.child(name).normal(size=p.shape)
                    for name, p in model.named_parameters()}

        # Uninterrupted run.
        model, opt = build()
        lrs = []
        for step in range(self.STEPS):
            opt.lr = self.lr_at(step)
            lrs.append(opt.lr)
            opt.step_with(grads_at(model, step))
        reference = model.state_dict()

        # Crashed run: checkpoint mid-warmup, crash, recover, resume.
        store = CheckpointStore(InMemoryBackend())
        model, opt = build()
        resumed_lrs = []
        for step in range(self.CRASH_AT):
            opt.lr = self.lr_at(step)
            resumed_lrs.append(opt.lr)
            opt.step_with(grads_at(model, step))
        store.save_full(self.CRASH_AT, model.state_dict(), opt.state_dict())

        model, opt = build()
        result = serial_recover(store, model, opt)
        assert result.step == self.CRASH_AT
        assert opt.step_count == self.CRASH_AT
        for step in range(opt.step_count, self.STEPS):
            opt.lr = self.lr_at(step)
            resumed_lrs.append(opt.lr)
            opt.step_with(grads_at(model, step))
        assert resumed_lrs == lrs  # bit-exact lr sequence
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, reference[name])
