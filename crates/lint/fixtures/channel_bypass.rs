//! Lint fixture: channel-bypass — master↔worker control state moves
//! only through the message channel. Scanned by `tests/fixtures.rs`
//! under a `crates/workqueue/src/` path (the rule is scoped there).
//! Never compiled.

struct Master;

impl Master {
    // Negative: the router delivering an inline message.
    fn route_ctl(&mut self, msg: ControlMsg) {
        self.deliver_ctl(msg);
    }

    // Negative: the event handler delivering a scheduled `NetDeliver`.
    fn handle(&mut self, msg: ControlMsg) {
        self.deliver_ctl(msg);
    }

    // Negative: staging starts from the dispatch receiver.
    fn recv_dispatch(&mut self, task: TaskId) {
        self.begin_staging(task);
    }

    // Positive: dispatch short-circuits the channel straight into
    // delivery — no loss, no partition, no fencing.
    fn dispatch(&mut self, msg: ControlMsg) {
        self.deliver_ctl(msg);
    }

    // Positive: staging entered without a Dispatch message having
    // crossed the channel.
    fn worker_connect(&mut self, task: TaskId) {
        self.begin_staging(task);
    }

    // Positive: a completion applied without the run-generation fence.
    fn fast_path(&mut self, task: TaskId) {
        self.recv_completion(task, 0);
    }

    // Negative: the delivery demultiplexer fans out to the receivers.
    fn deliver_ctl(&mut self, msg: ControlMsg) {
        self.recv_completion(msg.task, msg.run_gen);
        self.recv_heartbeat(msg.worker);
    }

    fn begin_staging(&mut self, task: TaskId) {
        let _ = task;
    }

    fn recv_completion(&mut self, task: TaskId, run_gen: u64) {
        let _ = (task, run_gen);
    }

    fn recv_heartbeat(&mut self, worker: WorkerId) {
        let _ = worker;
    }
}
