"""Two-layer LSTM built on numpy: cell mechanics, exact gradients, training."""

import tracemalloc
import warnings

import numpy as np
import pytest

from epiforecast.backtest import fit_normalized
from epiforecast.data import train_test_split
from epiforecast.errors import ContractError, DivergenceError
from epiforecast.forecasters import ForecasterSpec, fit, forecast, insample_predictions
from epiforecast.forecasters.base import FittedModel, LstmConfig
from epiforecast.forecasters.lstm import (
    LstmLayerParams,
    LstmParameters,
    _backward_batch,
    _forward_batch,
    forecast_lstm,
    init_lstm_parameters,
    insample_lstm,
    lstm_backward,
    lstm_cell_step,
    lstm_forward,
    train_lstm,
)
from epiforecast.transform import scale
from oracles import (
    lstm_gradcheck_max_rel_err,
    oracle_forecast_lstm,
    oracle_lstm_backward_batch,
    oracle_lstm_forward_batch,
    oracle_train_lstm_params,
    oracle_windows,
)
from support import series


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def zero_params(units, layers=2, input_dim=1):
    out = []
    d = input_dim
    for _ in range(layers):
        out.append(LstmLayerParams(W=np.zeros((4 * units, d + units)), b=np.zeros(4 * units)))
        d = units
    return LstmParameters(tuple(out), head_w=np.zeros(units), head_b=0.0)


def test_zero_parameters_predict_head_bias():
    params = zero_params(3)
    params = LstmParameters(params.layers, params.head_w, head_b=0.7)
    pred, _ = lstm_forward(params, np.array([5.0, -2.0, 9.0]))
    assert pred == 0.7


def test_cell_step_matches_hand_rolled_gates():
    rng = np.random.default_rng(4)
    u = 3
    layer = LstmLayerParams(
        W=rng.normal(0.0, 0.4, size=(4 * u, 1 + u)),
        b=rng.normal(0.0, 0.4, size=4 * u),
    )
    x = np.array([0.3])
    h_prev = rng.normal(0.0, 0.5, u)
    c_prev = rng.normal(0.0, 0.5, u)
    h, c = lstm_cell_step(x, h_prev, c_prev, layer)

    z = np.concatenate([x, h_prev])
    a = layer.W @ z + layer.b
    i = sigmoid(a[:u])
    f = sigmoid(a[u : 2 * u])
    o = sigmoid(a[2 * u : 3 * u])
    g = np.tanh(a[3 * u :])
    c_want = f * c_prev + i * g
    h_want = o * np.tanh(c_want)
    assert np.max(np.abs(c - c_want)) <= 1e-12
    assert np.max(np.abs(h - h_want)) <= 1e-12


def test_saturated_forget_gate_carries_cell_state():
    u = 2
    b = np.zeros(4 * u)
    b[:u] = -20.0  # input gate shut
    b[u : 2 * u] = 20.0  # forget gate open
    layer = LstmLayerParams(W=np.zeros((4 * u, 1 + u)), b=b)
    c_prev = np.array([0.8, -0.4])
    _, c = lstm_cell_step(np.array([1.0]), np.zeros(u), c_prev, layer)
    assert np.max(np.abs(c - c_prev)) <= 1e-8


def test_forward_equals_manual_layer_recursion():
    rng = np.random.default_rng(11)
    config = LstmConfig(num_units=4, window=5, epochs=1, learning_rate=0.1, layers=2)
    params = init_lstm_parameters(config, rng)
    window = rng.uniform(-1.0, 1.0, 5)
    pred, _ = lstm_forward(params, window)

    inputs = [np.array([v]) for v in window]
    for layer in params.layers:
        h = np.zeros(layer.units)
        c = np.zeros(layer.units)
        outputs = []
        for x in inputs:
            h, c = lstm_cell_step(x, h, c, layer)
            outputs.append(h)
        inputs = outputs
    manual = float(params.head_w @ inputs[-1] + params.head_b)
    assert pred == pytest.approx(manual, rel=0, abs=1e-12)


def test_forward_rejects_non_vector_window():
    params = zero_params(2)
    with pytest.raises(ContractError):
        lstm_forward(params, np.ones((3, 2)))


def test_cell_step_rejects_size_mismatch():
    params = zero_params(2)
    with pytest.raises(ContractError, match="does not match"):
        lstm_cell_step(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2), params.layers[0])


def test_gradients_match_finite_differences():
    assert lstm_gradcheck_max_rel_err(7000) < 1e-6


def test_head_bias_gradient_is_upstream_derivative():
    rng = np.random.default_rng(2)
    config = LstmConfig(num_units=3, window=4, epochs=1, learning_rate=0.1)
    params = init_lstm_parameters(config, rng)
    _, cache = lstm_forward(params, rng.uniform(-1.0, 1.0, 4))
    grads = lstm_backward(params, cache, 1.5)
    assert grads.head_b == 1.5
    zero = lstm_backward(params, cache, 0.0)
    assert zero.head_b == 0.0
    assert np.all(zero.head_w == 0.0)
    assert all(np.all(g.W == 0.0) and np.all(g.b == 0.0) for g in zero.layers)


def test_init_respects_scale_and_forget_bias():
    rng = np.random.default_rng(0)
    config = LstmConfig(num_units=8, window=3, epochs=1, learning_rate=0.1, layers=2)
    params = init_lstm_parameters(config, rng)
    assert len(params.layers) == 2
    assert params.layers[0].W.shape == (32, 1 + 8)
    assert params.layers[1].W.shape == (32, 8 + 8)
    for layer in params.layers:
        assert np.all(layer.b_f == 1.0)
        assert np.max(np.abs(layer.W)) <= 0.08
        assert np.max(np.abs(layer.b_i)) <= 0.08
    assert params.head_w.shape == (8,)


def test_zero_epochs_returns_untouched_init():
    s = series(np.sin(np.arange(30.0)))
    config = LstmConfig(num_units=4, window=5, epochs=0, learning_rate=0.1)
    model = train_lstm(s, config, seed=9)
    init = init_lstm_parameters(config, np.random.default_rng(9))
    for got, want in zip(model.params.layers, init.layers):
        assert got.W.tolist() == want.W.tolist()
        assert got.b.tolist() == want.b.tolist()
    assert model.params.head_w.tolist() == init.head_w.tolist()
    assert model.params.head_b == init.head_b
    # loss history: initial and final evaluation of the same parameters
    assert len(model.params.loss_history) == 2
    assert model.params.loss_history[0] == model.params.loss_history[-1]


def test_loss_history_length_and_improvement():
    s = series(np.arange(40.0) / 39.0)
    config = LstmConfig(num_units=4, window=4, epochs=25, learning_rate=0.2)
    model = train_lstm(s, config, seed=0)
    assert len(model.params.loss_history) == 27  # initial + per-epoch + final
    assert model.params.loss_history[-1] < model.params.loss_history[0]


def test_training_is_deterministic_and_seed_sensitive():
    s = series(np.sin(np.arange(60.0) / 6.0))
    config = LstmConfig(num_units=4, window=6, epochs=10, learning_rate=0.2, batch_size=16)
    a = train_lstm(s, config, seed=1)
    b = train_lstm(s, config, seed=1)
    other = train_lstm(s, config, seed=2)
    assert a.params.loss_history == b.params.loss_history
    assert forecast(a, 5).tolist() == forecast(b, 5).tolist()
    assert forecast(a, 5).tolist() != forecast(other, 5).tolist()


def test_divergence_error_names_the_epoch():
    s = series(np.arange(30.0))
    config = LstmConfig(num_units=4, window=4, epochs=50, learning_rate=1e4)
    with pytest.raises(DivergenceError, match="epoch"):
        train_lstm(s, config, seed=0)


def test_straight_line_is_learned_to_small_error():
    t = np.arange(120, dtype=np.float64)
    s = series(t / 119.0)
    config = LstmConfig(num_units=8, window=4, epochs=200, learning_rate=0.3, batch_size=16)
    model = fit(ForecasterSpec("lstm", config, 0), s)
    assert model.params.loss_history[-1] < 1e-3


def test_forecast_is_recursive_window_feed():
    s = series(np.sin(np.arange(50.0) / 5.0))
    config = LstmConfig(num_units=3, window=6, epochs=5, learning_rate=0.1)
    model = train_lstm(s, config, seed=3)
    assert model.train_tail.tolist() == s.values[-6:].tolist()

    one, _ = lstm_forward(model.params, s.values[-6:])
    fc = forecast(model, 3)
    assert fc[0] == one
    window = list(s.values[-6:])
    out = []
    for _ in range(3):
        pred, _ = lstm_forward(model.params, np.array(window))
        out.append(pred)
        window.pop(0)
        window.append(pred)
    assert fc.tolist() == out


def test_forecast_contract():
    s = series(np.arange(20.0) / 19.0)
    model = train_lstm(s, LstmConfig(num_units=2, window=3, epochs=1, learning_rate=0.1), 0)
    with pytest.raises(ContractError):
        forecast(model, 0)


def test_insample_windows_the_training_frame():
    s = series(np.arange(25.0) / 24.0)
    config = LstmConfig(num_units=3, window=4, epochs=2, learning_rate=0.1)
    model = fit(ForecasterSpec("lstm", config, 0), s)
    actual, predicted = insample_predictions(model, s)
    assert len(actual) == 21
    assert actual.tolist() == s.values[4:].tolist()
    want = [lstm_forward(model.params, s.values[i : i + 4])[0] for i in range(21)]
    assert np.max(np.abs(predicted - np.array(want))) <= 1e-12


def test_config_contract():
    with pytest.raises(ContractError):
        LstmConfig(num_units=0, window=4, epochs=1, learning_rate=0.1)
    with pytest.raises(ContractError):
        LstmConfig(num_units=4, window=0, epochs=1, learning_rate=0.1)
    with pytest.raises(ContractError):
        LstmConfig(num_units=4, window=4, epochs=-1, learning_rate=0.1)
    with pytest.raises(ContractError):
        LstmConfig(num_units=4, window=4, epochs=1, learning_rate=0.0)
    with pytest.raises(ContractError):
        LstmConfig(num_units=4, window=4, epochs=1, learning_rate=0.1, layers=0)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", (1, 7, 32))
@pytest.mark.parametrize("window", (1, 2, 14))
@pytest.mark.parametrize("units", (1, 4, 16))
@pytest.mark.parametrize("layers", (1, 2, 3))
def test_batch_kernel_is_bit_identical_to_batch_major_oracle(layers, units, window, batch):
    rng = np.random.default_rng([layers, units, window, batch])
    config = LstmConfig(num_units=units, window=window, epochs=1, learning_rate=0.1, layers=layers)
    params = init_lstm_parameters(config, rng)
    # off the tiny init, so every gate and the cell state leave their linear range
    params = LstmParameters(
        tuple(LstmLayerParams(lp.W * 10.0, lp.b * 10.0) for lp in params.layers),
        params.head_w * 10.0,
        params.head_b,
    )
    X = rng.uniform(-1.0, 1.0, (batch, window))
    d_preds = rng.normal(0.0, 1.0, batch)

    preds, cache = _forward_batch(params, X)
    want_preds, want_cache = oracle_lstm_forward_batch(params, X)
    assert_same_bytes(preds, want_preds)
    evaluated, no_cache = _forward_batch(params, X, cache=False)
    assert no_cache is None
    assert_same_bytes(evaluated, want_preds)
    grads = _backward_batch(params, cache, d_preds)
    want = oracle_lstm_backward_batch(params, want_cache, d_preds)
    assert len(grads.layers) == layers
    for got_layer, want_layer in zip(grads.layers, want.layers):
        assert_same_bytes(got_layer.W, want_layer.W)
        assert_same_bytes(got_layer.b, want_layer.b)
    assert_same_bytes(grads.head_w, want.head_w)
    assert grads.head_b == want.head_b


def test_backward_returns_the_gradient_as_parameters_of_the_same_shapes():
    config = LstmConfig(num_units=3, window=4, epochs=1, learning_rate=0.1, layers=2)
    params = init_lstm_parameters(config, np.random.default_rng(0))
    X = np.random.default_rng(1).uniform(-1.0, 1.0, (5, 4))
    _, cache = _forward_batch(params, X)
    grads = _backward_batch(params, cache, np.ones(5))
    assert type(grads) is LstmParameters and grads.loss_history == ()
    assert [(g.W.shape, g.b.shape) for g in grads.layers] == [
        (p.W.shape, p.b.shape) for p in params.layers
    ]
    assert grads.head_w.shape == params.head_w.shape and type(grads.head_b) is float
    assert type(lstm_backward(params, lstm_forward(params, X[0])[1], 1.0)) is LstmParameters


@pytest.mark.parametrize(
    "units, window, batch_size, layers",
    [(4, 5, 8, 2), (1, 3, 16, 2), (3, 4, 0, 1), (2, 2, 6, 3)],
    ids=["ragged-batches", "one-unit", "full-batch", "three-layers"],
)
def test_training_is_bit_identical_to_oracle_driven_loop(units, window, batch_size, layers):
    # 42 - window windows: not a multiple of any batch size used here
    values = np.sin(np.arange(42.0) / 4.0) * 0.4 + 0.5
    config = LstmConfig(
        num_units=units,
        window=window,
        epochs=6,
        learning_rate=0.3,
        batch_size=batch_size,
        layers=layers,
    )
    model = train_lstm(series(values), config, seed=5)
    X, y = oracle_windows(values, window)
    want_params, want_losses = oracle_train_lstm_params(X, y, config, seed=5)
    assert model.params.loss_history == want_losses
    for got, want in zip(model.params.layers, want_params.layers, strict=True):
        assert_same_bytes(got.W, want.W)
        assert_same_bytes(got.b, want.b)
    assert_same_bytes(model.params.head_w, want_params.head_w)
    assert model.params.head_b == want_params.head_b


def scaled(params, factor):
    """params with every layer's W and b and the head weights times factor."""
    return LstmParameters(
        tuple(LstmLayerParams(lp.W * factor, lp.b * factor) for lp in params.layers),
        params.head_w * factor,
        params.head_b,
    )


def lstm_model(params, window, tail):
    config = LstmConfig(
        num_units=params.head_w.size,
        window=window,
        epochs=1,
        learning_rate=0.1,
        layers=len(params.layers),
    )
    return FittedModel(ForecasterSpec("lstm", config), params, train_tail=tail)


def assert_forecasts_match_the_window_loop(model, horizons):
    # a recursive forecast's first k values do not depend on the horizon, so
    # one run of the old loop at the longest horizon serves every horizon
    want = oracle_forecast_lstm(model, max(horizons))
    for h in horizons:
        assert_same_bytes(forecast_lstm(model, h), want[:h])


@pytest.mark.parametrize("window", (1, 2, 14, 20))
@pytest.mark.parametrize("units", (1, 2, 16, 32))
@pytest.mark.parametrize("layers", (1, 2, 3))
def test_wavefront_forecast_is_bit_identical_to_the_window_loop(layers, units, window):
    rng = np.random.default_rng([layers, units, window])
    config = LstmConfig(num_units=units, window=window, epochs=1, learning_rate=0.1, layers=layers)
    params = init_lstm_parameters(config, rng)
    tail = rng.uniform(-1.0, 1.0, window)
    # at h = 2w + 1 the window opened on day 2w finds every state row used,
    # so the open windows' rows slide back to the front
    horizons = sorted({1, window - 1, window, window + 1, 2 * window + 1, 180})
    # factors 5 and 20 drive the gates and the cell state into saturation
    for factor in (1.0, 5.0, 20.0):
        model = lstm_model(scaled(params, factor), window, tail)
        assert_forecasts_match_the_window_loop(model, horizons)


@pytest.mark.parametrize("window", (1, 2, 14, 20))
@pytest.mark.parametrize("units", (1, 2, 16, 32))
@pytest.mark.parametrize("layers", (1, 2, 3))
def test_ring_forecast_warns_only_where_the_window_loop_does(layers, units, window):
    # a slot that holds no open window still steps: before its first window
    # opens, and after its last one closes, on that window's stale state.
    # Those idle steps must raise no floating-point warning the loop does not
    rng = np.random.default_rng([layers, units, window])
    config = LstmConfig(num_units=units, window=window, epochs=1, learning_rate=0.1, layers=layers)
    params = init_lstm_parameters(config, rng)
    tail = rng.uniform(-1.0, 1.0, window)
    for factor in (1.0, 5.0, 20.0):
        model = lstm_model(scaled(params, factor), window, tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                oracle_forecast_lstm(model, 180)
            except RuntimeWarning:
                continue  # a warning here is the model's, not the ring's
            for h in sorted({1, window - 1, window, window + 1, 2 * window + 1, 180}):
                forecast_lstm(model, h)


def test_wavefront_forecast_of_a_diverging_model_is_bit_identical():
    config = LstmConfig(num_units=16, window=14, epochs=1, learning_rate=0.1, layers=2)
    params = init_lstm_parameters(config, np.random.default_rng(3))
    # head_w x 1e308 feeds back predictions near 1e306, which saturate every
    # gate; an infinite or NaN head bias makes every prediction non-finite
    for head_b, finite in ((params.head_b, True), (np.inf, False), (np.nan, False)):
        diverging = LstmParameters(params.layers, params.head_w * 1e308, head_b)
        model = lstm_model(diverging, 14, np.linspace(0.0, 1.0, 14))
        with np.errstate(all="ignore"):
            assert_forecasts_match_the_window_loop(model, (1, 14, 15, 29, 180))
            values = forecast_lstm(model, 180)
        assert np.all(np.isfinite(values)) == finite
        assert not finite or np.max(np.abs(values)) > 1e305


def test_wavefront_forecast_differs_from_the_window_loop_at_most_in_nan_signs():
    # with zero input weights on the forget and candidate rows, an infinite
    # input gives 0 * inf = -nan there, and the sigmoid's negation flips it,
    # so NaNs of both signs meet in o * tanh(c). NumPy's vector loops return
    # the first operand's NaN in whole 8-lane blocks and the second's in the
    # tail after them, so which sign survives depends on the element's place
    # in the array, and the wavefront stacks windows into longer arrays
    config = LstmConfig(num_units=3, window=4, epochs=1, learning_rate=0.1, layers=2)
    params = init_lstm_parameters(config, np.random.default_rng(3))
    W = params.layers[0].W.copy()
    W[3:6, 0] = W[9:, 0] = 0.0
    layers = (LstmLayerParams(W, params.layers[0].b),) + params.layers[1:]
    model = lstm_model(LstmParameters(layers, params.head_w, np.inf), 4, np.linspace(0.0, 1.0, 4))
    with np.errstate(all="ignore"):
        got, want = forecast_lstm(model, 40), oracle_forecast_lstm(model, 40)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and nan.sum() == 39
    assert_same_bytes(got[~nan], want[~nan])


def test_wavefront_forecast_of_a_trained_deaths_model_is_bit_identical(deaths):
    train, _ = train_test_split(deaths, 0.2)
    config = LstmConfig(num_units=16, window=14, epochs=20, learning_rate=0.1, batch_size=32)
    model = fit_normalized(ForecasterSpec("lstm", config, 0), train)
    # horizons 1-15 take every ring size below the window, the full ring and
    # the first reused slot
    assert_forecasts_match_the_window_loop(model, (*range(1, 16), 29, 180))


def test_forecast_reads_a_tail_shorter_than_the_window_as_the_old_loop_did():
    config = LstmConfig(num_units=4, window=14, epochs=1, learning_rate=0.1, layers=2)
    params = scaled(init_lstm_parameters(config, np.random.default_rng(8)), 5.0)
    for n in (1, 5, 13):
        model = lstm_model(params, 14, np.linspace(-0.5, 0.5, n))
        assert_forecasts_match_the_window_loop(model, (1, n, n + 1, 2 * n + 1, 40))


def test_forecast_from_an_empty_tail_is_refused_as_by_the_old_loop():
    config = LstmConfig(num_units=3, window=4, epochs=1, learning_rate=0.1)
    model = lstm_model(init_lstm_parameters(config, np.random.default_rng(0)), 4, [])
    for run in (forecast_lstm, oracle_forecast_lstm):
        with pytest.raises(ContractError, match="^window must be a non-empty vector$"):
            run(model, 3)


def test_forecast_state_does_not_grow_with_the_horizon():
    config = LstmConfig(num_units=2, window=3, epochs=1, learning_rate=0.1, layers=2)
    model = lstm_model(init_lstm_parameters(config, np.random.default_rng(0)), 3, [0.1, 0.2, 0.3])
    forecast_lstm(model, 400)  # first-call allocations are not the forecast's state

    def peak_beyond_the_output(h):
        tracemalloc.start()
        try:
            out = forecast_lstm(model, h)
            return tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()

    # state kept per forecast day would add at least 8 bytes a day, 9,600 here
    assert peak_beyond_the_output(1600) <= peak_beyond_the_output(400) + 1024


def test_evaluation_forward_of_a_diverging_model_is_bit_identical():
    config = LstmConfig(num_units=16, window=14, epochs=1, learning_rate=0.1, layers=2)
    params = init_lstm_parameters(config, np.random.default_rng(3))
    X = np.random.default_rng(4).uniform(-1.0, 1.0, (291, 14))
    X[::7, 3] = 1e306  # fed-back predictions of a diverging forecast
    X[5, 9], X[6, 2] = np.inf, np.nan
    # head_w x 1e308 sums hidden states of both signs into +-inf and NaN
    for head_b in (params.head_b, np.inf, np.nan):
        diverging = LstmParameters(params.layers, params.head_w * 1e308, head_b)
        with np.errstate(all="ignore"):
            got = _forward_batch(diverging, X, cache=False)[0]
            want = oracle_lstm_forward_batch(diverging, X)[0]
            assert_same_bytes(got, _forward_batch(diverging, X)[0])
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and nan.any()
        assert_same_bytes(got[~nan], want[~nan])


def test_loss_history_and_insample_of_a_trained_deaths_model_keep_their_bytes(deaths):
    train, _ = train_test_split(deaths, 0.2)
    config = LstmConfig(num_units=16, window=14, epochs=20, learning_rate=0.1, batch_size=32)
    model = fit_normalized(ForecasterSpec("lstm", config, 0), train)
    scaled_train = scale(model.scaler, train)
    X, y = oracle_windows(scaled_train.values, 14)
    want_params, want_losses = oracle_train_lstm_params(X, y, config, seed=0)
    assert model.params.loss_history == want_losses
    actual, predicted = insample_lstm(model, scaled_train)
    assert_same_bytes(actual, y)
    assert_same_bytes(predicted, oracle_lstm_forward_batch(want_params, X)[0])
    assert_same_bytes(predicted, _forward_batch(model.params, X)[0])


def test_evaluation_keeps_no_backprop_cache():
    # the backtest's refit shape: 291 windows of 14 days, 16 units, 2 layers.
    # The caching forward peaks at about 8.3 MB here (both layers' Z and 28
    # step tuples), the evaluation forward at about 2.2 MB. Keeping the first
    # layer's Z alive while the second layer runs makes that about 2.55 MB
    config = LstmConfig(num_units=16, window=14, epochs=0, learning_rate=0.1, layers=2)
    s = series(np.random.default_rng(0).uniform(0.0, 1.0, 305))
    model = train_lstm(s, config, seed=0)
    insample_lstm(model, s)  # first-call allocations are not the forward's

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: insample_lstm(model, s)) < 2.4 * 2**20
    # epochs = 0: the initial and final full-batch losses and nothing else
    assert peak(lambda: train_lstm(s, config, seed=0)) < 2.4 * 2**20
