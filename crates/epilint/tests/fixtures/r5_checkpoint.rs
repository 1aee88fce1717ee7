//! R5 fixture: checkpoint deep clones and byte round-trips.

fn bad(p: &Particle, ck: &SimCheckpoint, raw: &[u8], out: &mut Vec<u8>) {
    let a = p.checkpoint.clone();
    let b = SimCheckpoint::clone(ck);
    let c = SimCheckpoint::from_bytes(raw);
    ck.append_bytes(out);
    SimCheckpoint::append_bytes(ck, out);
}

fn fine(p: &Particle, out: &mut Vec<u8>) {
    let a = Arc::clone(&p.checkpoint);
    let t = p.trajectory.clone();
    // epilint: allow(checkpoint-clone) — sanctioned escape hatch
    let b = SimCheckpoint::clone(&a);
    // A pool-level wrapper of the byte path is not the byte path itself.
    ckpool::encode_into(&a, out);
}
