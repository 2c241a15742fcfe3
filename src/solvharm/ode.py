"""Dormand-Prince 8(5,3), the ODE stepper of the integrated volume
density (``jacobi_flow._integrated_density``), in numpy alone: scipy's
``DOP853`` arithmetic in the same order, so its samples are scipy's bit
for bit, and no module loads scipy's ODE solvers.  Its own module, so
that ``import solvharm`` does not load it: ``jacobi_flow`` alone imports
it.
"""

import warnings

import numpy as np

from .config import INITIAL_STEP_FLOOR
from .errors import NumericalError

# The tableau of Hairer's dop853.f (Hairer, Norsett and Wanner, Solving
# ODEs I, sec. II.10), each entry the shortest decimal of its float64, as
# scipy's DOP853 holds it: rows 1-11 and 13-15 of A build the stages,
# _DOP_B (row 12) the step, _DOP_E5 and _DOP_E3 the two error estimates
# and _DOP_D the dense output.  The geodesic flow is autonomous, so the
# nodes c_i are not needed.
_DOP_A = np.array([[*row, *[0] * (16 - len(row))] for row in [
        [],
        [0.05260015195876773],
        [0.0197250569845379, 0.0591751709536137],
        [0.02958758547680685, 0, 0.08876275643042054],
        [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
        [0.037037037037037035, 0, 0, 0.17082860872947386,
         0.12546768756682242],
        [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
         -0.017578125],
        [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
         -0.015319437748624402, 0.008273789163814023],
        [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
         27.59209969944671, 20.154067550477894, -43.48988418106996],
        [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
         21.230051448181193, 15.279233632882423, -33.28821096898486,
         -0.020331201708508627],
        [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196],
        [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636],
        [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
         1.8915178993145003, -5.801203960010585, 0.3111643669578199,
         -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
        [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
         0.00820105229563469, 0.007567897660545699, -0.008298],
        [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
         0.053541988307438566, -0.05492374857139099, 0, 0,
         -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325],
        [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164,
         7.683421196062599, 4.06898981839711, 0.3567271874552811, 0, 0, 0,
         -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
]], dtype=float)
_DOP_B = _DOP_A[12, :12]
_DOP_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294, 0])
_DOP_E3 = np.append(_DOP_B - np.array([
    0.2440944881889764, 0, 0, 0, 0, 0, 0, 0, 0.7338466882816118, 0, 0,
    0.022058823529411766]), 0.0)
_DOP_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564]])


class _StepUnderflow(NumericalError):
    """The step size of :func:`_dop853` fell below ten spacings of the
    floats at ``t``; ``t`` and ``y`` are the last accepted time and state."""

    def __init__(self, t: float, y: np.ndarray):
        super().__init__(
            "Required step size is less than spacing between numbers.")
        self.t, self.y = t, y


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(bind, y0, t_end, t_grid, rtol, atol):
    """Integrate an autonomous y' = f(y) from y(0) = ``y0`` to ``t_end``
    with Dormand-Prince 8(5,3), and return the dense-output states at the
    times of ``t_grid`` (increasing, in [0, t_end]) as a
    ``(len(t_grid), y0.size)`` array, and the number of accepted steps.

    ``bind(y, dy)`` is called once per pair of buffers and returns a call
    that writes f(y) into ``dy``, so the right-hand side can make its
    views of both once.  Every stage input goes through one buffer, every
    output is a row of one stage array.

    The arithmetic is scipy's ``DOP853`` (``rk.py`` and ``common.py`` of
    its ``_ivp`` package) in the same order, so every result has its bits:
    its initial-step rule with error order 7; a step clipped to ``t_end``
    and never below ``min_step``, ten spacings of the floats at t; the
    step factor 0.9 err^(-1/8) kept in [0.2, 10], and at most 1 after a
    rejection; the error norm from the squared norms of the fifth- and
    third-order estimates; the last stage reused as the next first one;
    and the three extra stages and the dense output only on steps that
    pass a grid time.  An ``rtol`` below 100 eps is raised to it with a
    warning, as scipy does.  A step size below ``min_step``
    raises :class:`_StepUnderflow` with the last accepted (t, y).
    """
    n = y0.size
    floor = 100 * np.finfo(float).eps
    if rtol < floor:
        warnings.warn(f"rtol = {rtol:g} is below 100 eps, using {floor:g}")
        rtol = floor
    k = np.empty((16, n))        # the stages; row 12 is f at the new state
    ys = [np.array(y0, dtype=float), np.empty(n)]   # y and y_new, swapped
    tmp = np.empty(n)
    poly = np.empty((7, n))     # the dense output's coefficient rows
    samples = np.zeros((len(t_grid), n))
    k_err, k_step = k[:13].T, k[:12].T
    # (stages so far, their weights, the call that fills stage s)
    stages = [(k[:s].T, _DOP_A[s, :s], bind(tmp, k[s]))
              for s in (*range(1, 12), 13, 14, 15)]
    f_new = [bind(y, k[12]) for y in ys]

    # the initial step
    y = ys[0]
    f_new[0]()
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(k[12] / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end)
    np.multiply(h0, k[12], out=tmp)
    tmp += y
    stages[0][2]()
    d2 = _rms((k[1] - k[12]) / scale) / h0
    if d1 <= INITIAL_STEP_FLOOR and d2 <= INITIAL_STEP_FLOOR:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_end)

    t, cur, steps, done = 0.0, 0, 0, 0
    while t < t_end:
        y, y_new = ys[cur], ys[1 - cur]
        k[0] = k[12]
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise _StepUnderflow(t, y)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = np.abs(h)
            for k_s, a_s, stage in stages[:11]:
                np.dot(k_s, a_s, out=tmp)
                tmp *= h
                tmp += y
                stage()
            np.dot(k_step, _DOP_B, out=y_new)
            y_new *= h
            y_new += y
            f_new[1 - cur]()
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.linalg.norm(np.dot(k_err, _DOP_E5) / scale) ** 2
            err3 = np.linalg.norm(np.dot(k_err, _DOP_E3) / scale) ** 2
            if err5 == 0 and err3 == 0:
                error = 0.0
            else:
                error = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * n)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** (-1 / 8))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** (-1 / 8))
            rejected = True
        t_old, t, cur, steps = t, t_new, 1 - cur, steps + 1
        upto = t_grid.searchsorted(t, side="right")
        if upto == done:
            continue
        # dense output on [t_old, t], in Horner form in x and 1 - x
        for k_s, a_s, stage in stages[11:]:
            np.dot(k_s, a_s, out=tmp)
            tmp *= h
            tmp += y
            stage()
        delta = y_new - y
        poly[0] = delta
        np.multiply(h, k[0], out=poly[1])
        poly[1] -= delta
        np.add(k[12], k[0], out=poly[2])
        poly[2] *= h
        np.subtract(2 * delta, poly[2], out=poly[2])
        np.dot(_DOP_D, k, out=poly[3:])
        poly[3:] *= h
        x = ((t_grid[done:upto] - t_old) / h)[:, np.newaxis]
        out = samples[done:upto]
        for i, f in enumerate(poly[::-1]):
            out += f
            out *= x if i % 2 == 0 else 1 - x
        out += y
        done = upto
    return samples, steps
