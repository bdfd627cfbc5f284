//! Epoch-aligned runtime reconfiguration (the Fries model).
//!
//! A [`ControlChannel`] is a side channel into a *running* pipeline:
//! commands are scheduled against an event-time timestamp, and every
//! [`ControlSubscriber`] (typically one per reconfigurable operator)
//! applies a command at the first **watermark** at or past that
//! timestamp. When every sub-stream sees every watermark (the session
//! loop steps each one across it in turn), all subscribers observe the
//! same watermark sequence and therefore switch at the same epoch
//! boundary — no record is ever processed under a half-applied
//! configuration.
//!
//! The channel is deliberately generic: the stream layer provides the
//! scheduling, the command payload `C` (e.g. a re-compiled pollution
//! plan) is the caller's business.

use icewafl_types::Timestamp;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Scheduled<C> {
    at: Timestamp,
    command: Arc<C>,
}

struct Inner<C> {
    commands: Mutex<Vec<Scheduled<C>>>,
    /// Highest epoch sequence number applied by any subscriber.
    applied_hwm: AtomicU64,
}

/// A shared, thread-safe queue of timestamp-scheduled commands.
///
/// Cloning the channel shares the queue; commands may be scheduled
/// before the run starts or live from another thread while it executes.
pub struct ControlChannel<C> {
    inner: Arc<Inner<C>>,
}

impl<C> Clone for ControlChannel<C> {
    fn clone(&self) -> Self {
        ControlChannel {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<C> Default for ControlChannel<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> ControlChannel<C> {
    /// An empty channel.
    pub fn new() -> Self {
        ControlChannel {
            inner: Arc::new(Inner {
                commands: Mutex::new(Vec::new()),
                applied_hwm: AtomicU64::new(0),
            }),
        }
    }

    /// Schedules `command` to apply at the first watermark `wm >= at`.
    ///
    /// Epoch timestamps are forced monotone: a command scheduled before
    /// an already-queued one is clamped forward to the latest queued
    /// timestamp, so it still applies at the next boundary instead of
    /// being silently skipped by subscribers that passed it.
    pub fn schedule(&self, at: Timestamp, command: C) {
        let mut commands = self.inner.commands.lock();
        let at = commands.last().map_or(at, |last| at.max(last.at));
        commands.push(Scheduled {
            at,
            command: Arc::new(command),
        });
    }

    /// Number of scheduled commands (applied or not).
    pub fn len(&self) -> usize {
        self.inner.commands.lock().len()
    }

    /// `true` when no command was ever scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest epoch sequence number any subscriber has applied so far
    /// (1-based; 0 = nothing applied).
    pub fn applied(&self) -> u64 {
        self.inner.applied_hwm.load(Ordering::Relaxed)
    }

    /// A new subscriber starting before the first scheduled command.
    pub fn subscriber(&self) -> ControlSubscriber<C> {
        ControlSubscriber {
            channel: self.clone(),
            next: 0,
        }
    }
}

/// One operator's cursor into a [`ControlChannel`].
///
/// Each reconfigurable operator holds its own subscriber and calls
/// [`ControlSubscriber::poll`] from its watermark callback; subscribers
/// advance independently, which is exactly what keeps restarts sound: a
/// supervised retry rebuilds its operators with fresh subscribers and
/// re-applies every epoch at the same deterministic boundaries.
pub struct ControlSubscriber<C> {
    channel: ControlChannel<C>,
    next: usize,
}

impl<C> ControlSubscriber<C> {
    /// Returns the newest command due at watermark `wm`, with its epoch
    /// sequence number (1-based), advancing past every due command.
    ///
    /// Multiple commands due at the same watermark collapse to the last
    /// one scheduled — intermediate epochs were never observable, so
    /// only the final configuration is applied.
    pub fn poll(&mut self, wm: Timestamp) -> Option<(u64, Arc<C>)> {
        let commands = self.channel.inner.commands.lock();
        let mut latest = None;
        while let Some(scheduled) = commands.get(self.next) {
            if scheduled.at > wm {
                break;
            }
            self.next += 1;
            latest = Some((self.next as u64, Arc::clone(&scheduled.command)));
        }
        drop(commands);
        if let Some((epoch, _)) = &latest {
            self.channel
                .inner
                .applied_hwm
                .fetch_max(*epoch, Ordering::Relaxed);
        }
        latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_before_epoch_returns_nothing() {
        let chan = ControlChannel::new();
        chan.schedule(Timestamp(100), "a");
        let mut sub = chan.subscriber();
        assert!(sub.poll(Timestamp(99)).is_none());
        assert_eq!(chan.applied(), 0);
    }

    #[test]
    fn poll_at_epoch_returns_command_once() {
        let chan = ControlChannel::new();
        chan.schedule(Timestamp(100), "a");
        let mut sub = chan.subscriber();
        let (epoch, cmd) = sub.poll(Timestamp(100)).expect("due");
        assert_eq!(epoch, 1);
        assert_eq!(*cmd, "a");
        assert!(sub.poll(Timestamp(200)).is_none(), "already applied");
        assert_eq!(chan.applied(), 1);
    }

    #[test]
    fn multiple_due_commands_collapse_to_last() {
        let chan = ControlChannel::new();
        chan.schedule(Timestamp(10), "a");
        chan.schedule(Timestamp(20), "b");
        chan.schedule(Timestamp(30), "c");
        let mut sub = chan.subscriber();
        let (epoch, cmd) = sub.poll(Timestamp(25)).expect("two due");
        assert_eq!((epoch, *cmd), (2, "b"));
        let (epoch, cmd) = sub.poll(Timestamp(1000)).expect("third due");
        assert_eq!((epoch, *cmd), (3, "c"));
        assert_eq!(chan.applied(), 3);
    }

    #[test]
    fn subscribers_advance_independently() {
        let chan = ControlChannel::new();
        chan.schedule(Timestamp(10), 1u32);
        let mut a = chan.subscriber();
        let mut b = chan.subscriber();
        assert!(a.poll(Timestamp(10)).is_some());
        assert!(b.poll(Timestamp(10)).is_some(), "b has its own cursor");
    }

    #[test]
    fn out_of_order_schedule_is_clamped_monotone() {
        let chan = ControlChannel::new();
        chan.schedule(Timestamp(100), "late");
        chan.schedule(Timestamp(50), "early"); // clamped to 100
        let mut sub = chan.subscriber();
        assert!(sub.poll(Timestamp(60)).is_none(), "clamp keeps order");
        let (epoch, cmd) = sub.poll(Timestamp(100)).expect("both due");
        assert_eq!((epoch, *cmd), (2, "early"));
    }
}
