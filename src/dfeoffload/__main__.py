"""``python -m dfeoffload`` runs the ``dfeoffload`` command line."""

from .cli import main

raise SystemExit(main())
