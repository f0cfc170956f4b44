//! Minimal offline stand-in for `crossbeam` (channel subset used by
//! this workspace): MPMC bounded/unbounded channels with disconnect
//! semantics, built on std Mutex + Condvar.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap))
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);
    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;
    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.state.lock().unwrap();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = state.cap.is_some_and(|c| state.queue.len() >= c);
                if !full {
                    state.queue.push_back(value);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                state = self.0.not_full.wait(state).unwrap();
            }
        }

        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.0.state.lock().unwrap();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if state.cap.is_some_and(|c| state.queue.len() >= c) {
                return Err(TrySendError::Full(value));
            }
            state.queue.push_back(value);
            self.0.not_empty.notify_one();
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.0.state.lock().unwrap().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.0.state.lock().unwrap().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.state.lock().unwrap();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.0.not_empty.wait(state).unwrap();
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.0.state.lock().unwrap();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, result) = self
                    .0
                    .not_empty
                    .wait_timeout(state, deadline - now)
                    .unwrap();
                state = guard;
                if result.timed_out() && state.queue.is_empty() {
                    if state.senders == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.state.lock().unwrap();
            if let Some(v) = state.queue.pop_front() {
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        pub fn len(&self) -> usize {
            self.0.state.lock().unwrap().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        pub fn iter(&self) -> Iter<'_, T> {
            Iter(self)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.0.state.lock().unwrap().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().unwrap();
            state.receivers -= 1;
            if state.receivers == 0 {
                self.0.not_full.notify_all();
            }
        }
    }

    pub struct Iter<'a, T>(&'a Receiver<T>);
    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }
}
