"""Forked helpers, copies of the process kept for later calls, that run
parts of a call beside the caller: ``run_beside`` is the pool's one call,
and ``ranges`` cuts a call's items into one range per CPU.  Tasks and
answers are ``pickle`` frames over pipes, so a helper receives the caller's
own objects, subclasses included, and returns its own; a shared byte and
SIGUSR1 drop a task.  Importing ``pickle`` costs about 0.2 MiB of peak
RSS more than ``marshal``, which carries only plain data that a helper
would have to rebuild its objects from.  Standard library only.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import signal
import sys
import threading
from typing import Callable, Sequence


def _trial_ranges(trials: int, parts: int) -> list[range]:
    """``range(trials)`` cut into ``parts`` contiguous ranges, in order, whose
    lengths differ by at most one."""
    size, extra = divmod(trials, parts)
    bounds = [i * size + min(i, extra) for i in range(parts + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class _Helper:
    """A forked copy of the process that answers tasks: a task goes down one
    pipe, its answer (None if its call raised or was dropped) comes back up
    another, both as ``pickle`` frames (``_write_frame``).  ``dropping`` is
    one byte both processes share (``_serve``)."""

    def __init__(self, pid: int, tasks, results, dropping):
        self.pid, self.tasks, self.results, self.dropping = pid, tasks, results, dropping

    def result(self):
        """The answer to the last task sent, or None if the helper died, its
        call raised or its frame does not unpickle."""
        try:
            return pickle.loads(_read_frame(self.results))
        except Exception:
            return None

    def drop(self) -> bool:
        """Have the helper drop the last task sent, and wait until it has
        answered, for nothing: False if it died or its frame does not
        unpickle."""
        self.dropping[0] = 1
        try:
            os.kill(self.pid, signal.SIGUSR1)
            pickle.loads(_read_frame(self.results))
            return True
        except Exception:
            return False
        finally:
            self.dropping[0] = 0  # the helper is idle again, or dead

    def close(self) -> None:
        for pipe in (self.tasks, self.results, self.dropping):
            try:
                pipe.close()
            except OSError:
                pass

    def stop(self, kill: bool) -> None:
        """Close the pipes, which ends an idle helper, kill it first if asked,
        and reap it."""
        self.close()
        try:
            if kill:
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _write_frame(pipe, data: bytes) -> None:
    """Write pickled data as one frame: its length in 8 bytes, then it."""
    pipe.write(len(data).to_bytes(8, "little") + data)
    pipe.flush()


def _read_frame(pipe) -> bytes:
    """The data of the next frame on ``pipe``, in two reads; EOFError at its
    end or in its middle."""
    head = pipe.read(8)
    if len(head) < 8:
        raise EOFError
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    if len(data) < size:
        raise EOFError
    return data


_helpers: list[_Helper] = []  # idle helpers, in the order they were forked
# whether this process runs a part of a call, the caller's ``run_here`` or a
# helper's task: the helpers are busy, so ``ranges`` gives one range
_busy = False
_helpers_pid = 0  # the process they serve; a fork of it inherits the list, not them


class _Dropped(BaseException):
    """A helper's task was dropped; no ``except Exception`` of a task catches it."""


def _serve(tasks, results, dropping) -> None:
    """A helper's loop: answer each task, with None if it does not unpickle,
    its call raises, its answer does not pickle or it is dropped, until the
    task pipe's end of file.  The caller drops a task (``_Helper.drop``) by
    setting ``dropping[0]`` and sending SIGUSR1, and clears it once it has
    read the answer.  The signal raises ``_Dropped`` at most once a task,
    only while that task runs and ``dropping[0]`` is set: a late signal
    meant for an earlier task drops nothing, and a task not yet started
    when it comes finds ``dropping[0]`` set."""
    global _busy
    _busy = True  # a call in a helper never splits
    running = False

    def drop(*_):
        nonlocal running
        if running and dropping[0]:
            running = False
            raise _Dropped

    signal.signal(signal.SIGUSR1, drop)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGUSR1})
    nothing = pickle.dumps(None)
    while True:
        try:
            task = _read_frame(tasks)
        except EOFError:
            return
        answer = nothing
        try:
            try:
                running = True
                if not dropping[0]:
                    module, name, args = pickle.loads(task)
                    answer = pickle.dumps(getattr(sys.modules[module], name)(*args))
            finally:
                running = False
        except (Exception, _Dropped):
            answer = nothing
        _write_frame(results, answer)


def _fork_helper() -> _Helper:
    """Fork one helper, which serves tasks until its task pipe closes."""
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    dropping = mmap.mmap(-1, 1)  # shared with the helper
    parent = os.getpid()
    # SIGUSR1 waits until the helper has its handler (_serve)
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGUSR1})
    try:
        pid = os.fork()
    except OSError:
        for fd in (task_r, task_w, result_r, result_w):
            os.close(fd)
        dropping.close()
        raise
    finally:
        if os.getpid() == parent:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
    if pid == 0:
        # the helper never returns into its parent's stack
        try:
            os.close(task_w)
            os.close(result_r)
            for other in _helpers:
                other.close()
            # an orphan ends within half a second, even in the middle of a task
            signal.signal(signal.SIGALRM, lambda *_: os.getppid() == parent or os._exit(0))
            signal.setitimer(signal.ITIMER_REAL, 0.5, 0.5)
            _serve(open(task_r, "rb"), open(result_w, "wb"), dropping)
        finally:
            os._exit(0)
    os.close(task_r)
    os.close(result_w)
    return _Helper(pid, open(task_w, "wb"), open(result_r, "rb"), dropping)


def _stop_helpers(kill: bool = False) -> None:
    """End and reap this process's helpers (at exit, and after a call that
    raised, so no helper's answer outlives its call)."""
    mine = _helpers_pid == os.getpid()
    for helper in _helpers:
        if mine:
            helper.stop(kill)
        else:
            helper.close()
    _helpers.clear()


def _helpers_for(count: int) -> list[_Helper]:
    """Up to ``count`` helpers of this process, forked as needed; fewer if a
    fork fails."""
    global _helpers_pid
    if _helpers_pid != os.getpid():
        _stop_helpers()
        _helpers_pid = os.getpid()
        atexit.register(_stop_helpers)
    try:
        while len(_helpers) < count:
            _helpers.append(_fork_helper())
    except OSError:
        pass
    return _helpers[:count]


def ranges(items: int) -> list[range]:
    """``range(items)`` cut into contiguous ranges, one per CPU this process
    may run on and at most one per item: the caller's, then one per task of
    ``run_beside``.  One range when forking is unsafe or pointless (no
    ``os.fork`` or ``os.sched_getaffinity``, more than one thread, one CPU
    or one item) or inside a part of a call, whose helpers are busy."""
    if (
        items < 2
        or _busy
        or not hasattr(os, "fork")
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return [range(items)]
    return _trial_ranges(items, min(len(os.sched_getaffinity(0)), items))


def run_beside(
    tasks: Sequence[tuple],
    run_here: Callable[[], object],
    decides: Callable[[object], bool] = lambda answer: False,
) -> tuple[object, list]:
    """``run_here()`` in this process while one helper per task answers it:
    what ``run_here`` returned, and the tasks' answers in order.  A task is
    ``(module, name, args)``, answered by ``getattr(sys.modules[module],
    name)(*args)`` in the helper, pickled both ways: the helper receives the
    caller's own objects as they stand at this call, and the caller receives
    the helper's.  An answer is None, for the caller to rerun its part, when
    its helper died, its call raised or its frame does not unpickle (the
    helper is reaped), no helper could be forked, or ``pickle`` cannot carry
    the tasks (none is sent, and none forks a helper).  Once ``run_here``'s
    result or an answer ``decides`` the call (None never may), the helpers
    after it drop their tasks (``_Helper.drop``) and answer None.  Every
    helper is read before this returns; if anything raises, every helper is
    killed, so no answer of this call reaches a later one."""
    try:
        frames = [pickle.dumps(task) for task in tasks]
    except (pickle.PicklingError, AttributeError, TypeError):
        frames = []  # an argument pickle cannot carry: every part runs here
    helpers = _helpers_for(len(frames))
    answers: list = [None] * len(tasks)
    global _busy
    try:
        for helper, frame in zip(helpers, frames):
            try:
                _write_frame(helper.tasks, frame)
            except OSError:
                pass  # a dead helper; its result() reads its end of file
        busy, _busy = _busy, True
        try:
            here = run_here()
        finally:
            _busy = busy
        decided = decides(here)
        for i, helper in enumerate(helpers):
            if decided:
                answered = helper.drop()
            else:
                answers[i] = helper.result()
                answered = answers[i] is not None
            if not answered:
                _helpers.remove(helper)
                helper.stop(kill=True)
            decided = decided or decides(answers[i])
    except BaseException:
        _stop_helpers(kill=True)  # no answer of this call may reach the next
        raise
    return here, answers
