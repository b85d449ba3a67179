//! Lint fixture (cross-file pair, 2/2): WAL construct sites and replay
//! arms — `Orphan` is never constructed, `Expire` never replayed.
//! Never compiled; see `wal_defs.rs`.

fn log_decisions(wal: &mut Wal) {
    wal.append(WalRecord::Submit { job: 1 });
    wal.append(WalRecord::Learn(7));
    wal.append(WalRecord::Complete);
    wal.append(WalRecord::Expire { task: 9 });
}

// Replay arms for every variant but `Expire`.
fn replay(rec: WalRecord) {
    match rec {
        WalRecord::Submit { job } => apply(job),
        WalRecord::Learn(cat) => learn(cat),
        WalRecord::Complete => finish(),
        WalRecord::Orphan { task } => ignore(task),
    }
}
