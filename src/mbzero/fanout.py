"""The worker processes of census, audit and double-double filter-roots."""

import contextlib
import os
import pickle


def fan_out(fn, items, workers: int) -> list:
    """[fn(x) for x in items] over up to `workers` children forked for this
    call, with the serial loop's results and first failure in input order;
    OSError for a child that ends without sending its results.  One worker
    runs the loop in this process."""
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    ends = [open(fd, mode, buffering=0) for _ in range(workers + 1)
            for fd, mode in zip(os.pipe(), ("rb", "wb"))]
    pids = []  # ends: the index pipe's, then each child's result pipe's
    try:
        for mine in ends[3::2]:
            pids.append(os.fork())
            if not pids[-1]:  # the child: never returns, whatever is raised
                try:
                    for end in set(ends[1:]) - {mine}:
                        end.close()
                    done = []
                    while len(record := ends[0].read(4)) == 4:
                        i = int.from_bytes(record, "little")
                        try:
                            done.append((i, True, fn(items[i])))
                        except Exception as exc:
                            done.append((i, False, exc))
                    with open(mine.fileno(), "wb", closefd=False) as fh:
                        pickle.dump(done, fh)
                    os._exit(0)
                finally:
                    os._exit(1)
        for end in ends[:1] + ends[3::2]:
            end.close()
        # after the forks, so that a full pipe has a reader; 4 <= PIPE_BUF
        with contextlib.suppress(BrokenPipeError):  # every child has ended
            for i in range(len(items)):
                ends[1].write(i.to_bytes(4, "little"))
        ends[1].close()
        sent = [end.readall() for end in ends[2::2]]
    finally:
        for end in ends:
            end.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    for pid, code, data in zip(pids, codes, sent):
        if code or not data:
            raise OSError(f"worker {pid} sent no results (exit status {code})")
    done = sorted(x for data in sent for x in pickle.loads(data))
    for _, ok, value in done:
        if not ok:
            raise value
    return [value for *_, value in done]
