"""Flat key=value configuration, run manifests, the grid builder and
bit-stable CSV output.

A config file is plain text: one `key = value` per line, `#` comments,
blank lines ignored. Unknown and repeated keys are rejected, so a typo
cannot pass silently. All energies are GHz, times ns, temperatures K.
"""

import numpy as np

from .model import (DEFAULT_ACTIVATION_MEV, DEFAULT_ATTEMPT_RATE,
                    FineStructureParams, RateParams, checked_strains)

ARTIFACT_VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


def _defaults():
    out = {}
    for record in (FineStructureParams, RateParams):
        for name, value in record._field_defaults.items():
            out[name] = float(value)
    out["hop_attempt_rate"] = DEFAULT_ATTEMPT_RATE
    out["hop_activation_mev"] = DEFAULT_ACTIVATION_MEV
    out["strain_min"] = 0.0
    out["strain_max"] = 20.0
    out["strain_points"] = 801
    out["output_dir"] = "."
    return out


class Config:
    """Resolved configuration: model parameters, photodynamics rates,
    hop-rate Arrhenius map, sweep grid and output directory."""

    def __init__(self, values=None):
        self.values = _defaults() if values is None else values

    def __getitem__(self, key):
        return self.values[key]

    def fine_structure(self):
        return FineStructureParams._make(
            self.values[k] for k in FineStructureParams._fields)

    def rates(self):
        return RateParams._make(self.values[k] for k in RateParams._fields)

    def temperature_map(self):
        from .motional import TemperatureMap
        return TemperatureMap(r0=self.values["hop_attempt_rate"],
                              ea=self.values["hop_activation_mev"])

    def strain_grid(self):
        lo, hi = checked_strains((self.values["strain_min"],
                                  self.values["strain_max"]))
        return linear_grid(lo, hi, int(self.values["strain_points"]),
                           "strain_min and strain_max", "strain_points")

    def dump(self):
        """Key-sorted text snapshot; reloading it reproduces the config."""
        lines = []
        for k in sorted(self.values):
            v = self.values[k]
            lines.append(f"{k} = {v!r}" if isinstance(v, float)
                         else f"{k} = {v}")
        return "\n".join(lines) + "\n"


def linear_grid(lo, hi, points, bounds, count):
    """`np.linspace(lo, hi, points)` after the checks numpy does not make:
    it takes 0 or 1 points, warns on an infinite bound, and returns
    repeated or descending points. Every CLI and config grid is built
    here; `bounds` and `count` name the inputs for the message."""
    if points < 2:
        raise ValueError(f"{count} must be >= 2")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{bounds} must be finite")
    if not np.isfinite(float(hi) - float(lo)):
        raise ValueError(f"{bounds} span a range too wide to represent")
    grid = np.linspace(lo, hi, points)
    if not np.all(np.diff(grid) > 0):
        raise ValueError(f"{bounds} must give an ascending grid")
    return grid


def parse_config(text):
    """Parse key=value text over the defaults."""
    cfg = Config(_defaults())
    seen = {}       # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, "
                              f"got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in cfg.values:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} already set on "
                              f"line {seen[key]}")
        seen[key] = lineno
        old = cfg.values[key]
        try:
            if isinstance(old, int) and not isinstance(old, bool):
                cfg.values[key] = int(value)
            elif isinstance(old, float):
                cfg.values[key] = float(value)
            else:
                cfg.values[key] = value
        except ValueError as err:
            raise ConfigError(
                f"line {lineno}: bad value for {key}: {value!r}") from err
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_config(fh.read())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err


def format_number(x):
    """Locale-independent, 9-significant-digit decimal rendering."""
    return f"{float(x):#.9g}"


def write_csv(path, header, rows):
    """Comma-separated output: header first, every number printed with 9
    significant digits (`format_number`), bools and strings as str(v),
    lines terminated by a single line feed. Each row is printed by one
    format string, built once per sequence of value types."""
    ncol = len(header)
    out = [",".join(header)]
    formats = {}
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise ValueError(f"row {i} has {len(row)} fields, "
                             f"expected {ncol}")
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                "%#.9g" if issubclass(t, (int, float))
                and not issubclass(t, bool) else "%s" for t in types)
        out.append(fmt % tuple(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def sha256_file(path):
    import hashlib      # only `fit` hashes an input; OpenSSL loads slowly
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Reproducibility record emitted next to every output set."""

    def __init__(self, command, config, inputs=None, outputs=None):
        self.command = command
        self.config = config
        self.inputs = {} if inputs is None else inputs     # path -> sha256
        self.outputs = [] if outputs is None else outputs

    def render(self):
        lines = [f"command = {self.command}",
                 f"version = {ARTIFACT_VERSION}"]
        for path in sorted(self.inputs):
            lines.append(f"input {path} sha256 {self.inputs[path]}")
        for path in self.outputs:
            lines.append(f"output {path}")
        lines.append("[config]")
        lines.append(self.config.dump().rstrip("\n"))
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.render())
