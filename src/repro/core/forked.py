"""Forked workers that send their results home through pipes.

The one way the program uses more than one CPU: ``synthesize`` deals a
large spec's candidate pass over forked workers, and
:class:`~repro.core.explore.ExplorationEngine` deals a sweep's tasks
over them.  A worker is a bare ``fork`` child: it inherits everything
it reads, so nothing is pickled on the way out, and it starts on its
share at once.  Each message comes home as one pickle on the worker's
pipe, which the caller decodes straight off the read end, so the
encoded bytes are never held whole.  (An executor pool hands work over
and takes results in through threads of the caller, which wait for the
GIL while the caller computes: docs/performance.md, "Candidate
fan-out".)

``multiprocessing`` is imported only when a caller asks to fork.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager
from typing import BinaryIO, Callable, Dict, Iterable, Iterator, Tuple

#: What a worker runs: ``work(index, send)``, where ``send(message)``
#: pickles one message home.
Work = Callable[[int, Callable[[object], None]], None]


def may_fork() -> bool:
    """Whether this process may fork workers.

    The start method is ``fork`` (workers inherit what they read instead
    of unpickling it), no other thread runs (a fork copies no thread, so
    a lock another one holds would stay held in the worker), and this
    process is not itself a worker (workers never nest).
    """
    import multiprocessing
    import threading

    if multiprocessing.parent_process() is not None or threading.active_count() > 1:
        return False
    method = multiprocessing.get_start_method(allow_none=True)
    return (method or multiprocessing.get_all_start_methods()[0]) == "fork"


@contextmanager
def forked_workers(
    work: Work, indices: Iterable[int], label: str
) -> Iterator[Callable[[int], object]]:
    """Fork one worker per index; worker ``i`` runs ``work(i, send)``.

    Yields ``receive(i)``, which returns worker ``i``'s next message, in
    the order the worker sent them.  An exception the worker's ``work``
    raised re-raises here, and a worker that exits before its next
    message raises :class:`RuntimeError` (``"<label> <i>: worker exited
    without a result"``).  On any error the other workers are
    terminated; every worker is joined before the block is left.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers: Dict[int, Tuple[multiprocessing.Process, BinaryIO]] = {}

    def receive(index: int) -> object:
        try:
            message = pickle.load(workers[index][1])
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(
                "%s %d: worker exited without a result" % (label, index)
            ) from None
        if isinstance(message, BaseException):
            raise message
        return message

    try:
        for index in indices:
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb")
            worker = context.Process(
                target=_serve,
                args=(work, index, write_fd, read_fd),
                name="%s %d" % (label, index),
            )
            try:
                worker.start()
            except BaseException:
                pipe.close()
                raise
            finally:
                os.close(write_fd)
            workers[index] = (worker, pipe)
        yield receive
    except BaseException:
        for worker, _ in workers.values():
            worker.terminate()
        raise
    finally:
        for worker, pipe in workers.values():
            pipe.close()
            worker.join()


def _serve(work: Work, index: int, write_fd: int, read_fd: int) -> None:
    """A worker's life: run ``work``, one pickle per message, then exit.

    An exception from ``work`` goes home as the last message.
    """
    os.close(read_fd)
    with open(write_fd, "wb") as pipe:

        def send(message: object) -> None:
            pipe.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
            pipe.flush()

        try:
            work(index, send)
        except Exception as exc:  # re-raised by the caller's receive
            send(exc)
