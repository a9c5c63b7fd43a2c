"""The package's error for a configuration that cannot be run."""


class ConfigurationError(ValueError):
    pass
