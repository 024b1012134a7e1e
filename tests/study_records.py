"""The exact form of a list of studies, for tests that compare splits bit for bit."""


def exact_form(studies) -> list[tuple]:
    """Every id, view, pixel shape and byte, section and label of ``studies``, the labels in their order."""
    return [
        (
            s.id,
            [(image.view, image.pixels.shape, image.pixels.tobytes()) for image in s.images],
            s.findings,
            s.impression,
            None if s.labels is None else list(s.labels.items()),
        )
        for s in studies
    ]
