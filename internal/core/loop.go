package core

import (
	"errors"
	"math/rand/v2"
	"time"

	"bamboo/internal/stats"
	"bamboo/internal/txn"
)

// Attempt is what an engine supplies to the attempt loop (RunAttempts):
// how one attempt of a logical transaction begins, commits and rolls
// back. The loop owns the rest — the transaction id, the clock, the
// outcome, its accounting and the backoff before a retry — so the lock
// engine, Silo and IC3 measure and retry alike.
type Attempt interface {
	// Begin resets the engine's per-attempt state for attempt n (0 for
	// the first) of logical transaction id and returns the Tx the body
	// runs against.
	Begin(id uint64, n int) Tx
	// Commit commits the attempt whose body returned nil; start is when
	// the attempt began on the loop's clock. It returns the time the
	// attempt waited for other transactions to commit — the commit
	// semaphore, IC3's dependency drain — and nil once the attempt
	// committed, an Abort to have the loop roll it back and retry, or
	// any other error, which is fatal and after which the attempt holds
	// nothing: a failure before the commit record is sequenced rolls
	// back, one after it releases as committed.
	Commit(start time.Duration) (commitWait time.Duration, err error)
	// Rollback undoes the attempt and releases everything it holds.
	Rollback()
	// LockWait is the time the attempt was blocked behind other
	// transactions' locks or pieces.
	LockWait() time.Duration
}

// Abort is the error that ends an attempt in a protocol abort, with its
// cause: the loop rolls the attempt back, counts the abort under the
// cause and retries. An engine's Tx operations and its Commit return it;
// a body passes it on, wrapped or not.
type Abort txn.AbortCause

func (a Abort) Error() string { return "core: attempt aborted: " + txn.AbortCause(a).String() }

// errSnapshotFallback restarts a snapshot attempt on the locking path: a
// write inside a transaction marked read-only, or a read of a row with no
// version visible at the snapshot (e.g. inserted after it). The restart
// is internal — neither a commit nor an abort, and not backed off — and
// the retry refuses snapshot mode (roFallback).
var errSnapshotFallback = errors.New("core: snapshot attempt falls back to locking path")

// RunAttempts runs fn as one logical transaction, under an id drawn from
// the session's ids, through a's attempts, recording into col, until an
// attempt commits, the body returns ErrUserAbort (final, not retried) or
// an error that is no Abort ends the run; only that last case returns an
// error. It is every engine's Session.Run.
//
// Two reads of the clock bracket each attempt, body and commit, however
// many operations it makes. Lock wait and commit wait are the parts of
// the attempt spent waiting for other transactions; the rest is the
// attempt's own work — useful time if it commits, abort time if not.
func RunAttempts(db *DB, ids *TxnIDs, col *stats.Collector, a Attempt, fn TxnFunc) error {
	id := ids.next(db)
	for n := 0; ; n++ {
		tx := a.Begin(id, n)
		start := now()
		err := fn(tx)
		committing := err == nil
		var commitWait time.Duration
		if committing {
			commitWait, err = a.Commit(start)
		}
		wall := now() - start
		lockWait := a.LockWait()
		own := wall - lockWait - commitWait
		if err == nil {
			col.RecordCommit(own, lockWait, commitWait)
			return nil
		}
		cause, aborted := abortCause(err)
		if committing && !aborted {
			return err // a fatal commit released the attempt itself
		}
		a.Rollback()
		switch {
		case aborted:
		case errors.Is(err, ErrUserAbort):
			cause = txn.CauseUser
		case errors.Is(err, errSnapshotFallback):
			continue
		default:
			return err
		}
		col.RecordAbort(cause, own, lockWait, commitWait)
		if cause == txn.CauseUser {
			return nil
		}
		backoff(a, cause)
	}
}

// txnIDBlock is how many transaction ids a session reserves from its DB
// at once. Ids only need to be unique — the WAL keeps at most one record
// of a transaction per log, the verifier one commit per id — so a session
// may hand out its block in any order against other sessions', and the
// DB-wide counter every session would otherwise write on every
// transaction is written once per block. (Priority timestamps are another
// matter: they must track arrival order; ARCHITECTURE.md, "Sharded
// timestamps".)
const txnIDBlock = 1024

// TxnIDs is a session's supply of transaction ids: the last id it drew,
// from the block that id belongs to. The zero value is an exhausted
// supply, so the first draw reserves a block.
type TxnIDs struct{ last uint64 }

// next draws the session's next transaction id, reserving a new block of
// db's ids when the current one is used up. Blocks are aligned to
// txnIDBlock, so the last id of a block is a multiple of it.
func (ids *TxnIDs) next(db *DB) uint64 {
	if ids.last%txnIDBlock == 0 {
		ids.last = db.txnIDs.Add(txnIDBlock) - txnIDBlock
	}
	ids.last++
	return ids.last
}

// abortCause is the cause of the Abort err is or wraps. (errors.As would
// allocate its target on every abort.)
func abortCause(err error) (txn.AbortCause, bool) {
	for ; err != nil; err = errors.Unwrap(err) {
		if a, ok := err.(Abort); ok {
			return txn.AbortCause(a), true
		}
	}
	return txn.CauseNone, false
}

// backoff sleeps before the retry of an attempt that aborted with cause:
// a jittered interval below DefaultAbortBackoff, flat (an attempt-scaled
// cap measured no better; EXPERIMENTS.md, 2026-10-17). It sleeps after an
// attempt gave up on a conflict still in place (CauseDie: a No-Wait or
// Wait-Die self-abort, a Bamboo commit's self-revert, an IC3 deadlock
// victim), so that the holder it lost to gets to finish, and after
// an IC3 cascade, whose immediate retries cascade again (fig11's
// modified NewOrder went from under 1 % to over 50 % aborts). The rest
// retry at once: a wounded or cascaded lock-engine retry keeps its
// timestamp and queues behind the winner in the lock table, and a Silo
// validation failure means a conflicting writer has committed or is
// installing, so the retry reads its write (Silo measured faster without
// a backoff).
func backoff(a Attempt, cause txn.AbortCause) {
	_, lockEngine := a.(*lockSession)
	if cause == txn.CauseDie || cause == txn.CauseCascade && !lockEngine {
		time.Sleep(rand.N(DefaultAbortBackoff))
	}
}
