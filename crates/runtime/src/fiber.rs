//! Stackful fibers: a scheduled run's workers on the calling thread.
//!
//! The executor enters every worker of a scheduled run (a
//! [cooperative](crate::Sim::declare_cooperative) `Sim`'s, a
//! [`Sim::replay`](crate::Sim::replay), or
//! [`Sim::try_run_scheduled`](crate::Sim::try_run_scheduled)) into its
//! scheduler, which runs one worker at a time, so the workers need not be
//! OS threads.
//! [`run`] executes each body as a fiber on its own guard-paged stack, on
//! the calling thread, and a scheduler grant becomes a register switch
//! instead of a futex wake.
//!
//! The driver is asymmetric. A fiber runs until it `suspend`s, naming the
//! fiber the scheduler granted, or until its body returns; either way
//! control goes back to the driver, which resumes the named fiber. While
//! no grant names one, fibers that have not started yet start in index
//! order, so every worker reaches its scheduler registration before the
//! first grant is made, as OS threads would. Fiber `i` is the scheduler's
//! thread `i`.
//!
//! Each body runs inside `catch_unwind` at its fiber's base, so nothing
//! unwinds through a switch, and a panic's payload is returned. A fiber
//! never switches while it unwinds: std keeps one panic count per OS
//! thread, so a second fiber panicking while the first is mid-unwind would
//! abort the process. `hand_over` therefore only records the next grant,
//! and the driver resumes it after the finished fiber's `catch_unwind`
//! returned. `unwind_all` turns every later resume into a panic carrying
//! the given diagnostic; the driver does the same itself, naming the
//! parked fibers, when no fiber holds the grant, so it never spins.
//!
//! The `htm_core::coop` hooks are per fiber: the driver swaps them in and
//! out at every resume ([`htm_core::coop::swap`]).
//!
//! The switch routine saves the System V callee-saved state (rbx, rbp,
//! r12–r15, rsp, MXCSR and the x87 control word). Stacks are 2 MiB, the
//! std thread default, mapped with `MAP_NORESERVE` (only touched pages
//! count toward RSS) below a `PROT_NONE` guard page, and reused by later
//! runs on the same thread. This is the repository's only unsafe code.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use htm_core::coop::{self, CoopHooks};

/// Usable bytes per fiber stack: the std thread default.
const STACK_BYTES: usize = 2 << 20;
/// The `PROT_NONE` page below each stack.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

// std links libc already; these are its System V memory-mapping calls.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

// `htm_fiber_switch(save, load)` pushes the callee-saved registers and the
// floating-point control state on the current stack, stores the stack
// pointer to `*save`, switches to the stack at `load` and pops that
// stack's saved state, returning into whatever suspended there.
//
// `htm_fiber_start` is where a fresh fiber's first switch returns to. It
// aligns the stack to 16 bytes and calls `fiber_main`, which never
// returns. `.cfi_undefined rip` marks it as the outermost frame, so
// unwinders and backtraces stop at the fiber's base.
std::arch::global_asm!(
    ".pushsection .text.htm_fiber,\"ax\",@progbits",
    ".p2align 4",
    ".globl htm_fiber_switch",
    ".hidden htm_fiber_switch",
    ".type htm_fiber_switch,@function",
    "htm_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size htm_fiber_switch, . - htm_fiber_switch",
    ".p2align 4",
    ".globl htm_fiber_start",
    ".hidden htm_fiber_start",
    ".type htm_fiber_start,@function",
    "htm_fiber_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "and rsp, -16",
    "call {main}",
    "ud2",
    ".cfi_endproc",
    ".size htm_fiber_start, . - htm_fiber_start",
    ".popsection",
    main = sym fiber_main,
);

extern "C" {
    fn htm_fiber_switch(save: *mut *mut u8, load: *mut u8);
    fn htm_fiber_start();
}

/// A fresh fiber's saved MXCSR (low half: 0x1F80, every exception masked,
/// round to nearest) and x87 control word (0x037F), the ABI defaults.
const FP_CONTROL: u64 = 0x037F_0000_1F80;

/// One guard-paged stack mapping.
struct Stack {
    /// Start of the mapping (the guard page).
    base: *mut c_void,
}

impl Stack {
    fn map() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: a new anonymous private mapping at an address the kernel
        // picks; it aliases no existing memory.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "fiber stack: mmap of {len} bytes failed: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack { base };
        // SAFETY: the lowest page of the mapping made above, which nothing
        // references yet.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(rc == 0, "fiber stack: mprotect failed: {}", std::io::Error::last_os_error());
        stack
    }

    /// Builds the frame a fresh fiber's first switch pops, and returns the
    /// stack pointer to switch to.
    fn entry_frame(&self) -> *mut u8 {
        // Popped in this order by `htm_fiber_switch`: the FP control
        // state, r15, r14, r13, r12, rbx, rbp (0 ends the frame-pointer
        // chain), the return address, and one slot of padding that
        // `htm_fiber_start` realigns away.
        let frame: [u64; 9] =
            [FP_CONTROL, 0, 0, 0, 0, 0, 0, htm_fiber_start as *const () as u64, 0];
        // SAFETY: the frame's 72 bytes are the top of the mapping's
        // writable part (the mapping is page-aligned, so the top is 16-byte
        // aligned), and no fiber runs on this stack now.
        unsafe {
            let top = self.base.cast::<u8>().add(GUARD_BYTES + STACK_BYTES).cast::<u64>();
            let sp = top.sub(frame.len());
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            sp.cast()
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping this stack owns; no fiber runs on it, since a
        // stack is dropped only from the spare pool or after its fiber
        // finished.
        unsafe { munmap(self.base, GUARD_BYTES + STACK_BYTES) };
    }
}

thread_local! {
    /// Stacks of finished fibers, reused by later runs on this thread.
    static SPARE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    /// The driver running fibers on this thread, while [`Driver::drive`]
    /// runs (null otherwise).
    static DRIVER: Cell<*const Driver<'static>> = const { Cell::new(std::ptr::null()) };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Fresh,
    Running,
    Parked,
    Done,
}

struct Fiber<'a> {
    /// Saved stack pointer while the fiber is not running.
    sp: Cell<*mut u8>,
    state: Cell<State>,
    body: Cell<Option<Box<dyn FnOnce() + 'a>>>,
    panic: Cell<Option<Box<dyn Any + Send>>>,
    /// The fiber's coop hooks while it is not running.
    hooks: Cell<Option<Rc<dyn CoopHooks>>>,
    stack: Option<Stack>,
}

impl Drop for Fiber<'_> {
    fn drop(&mut self) {
        if !matches!(self.state.get(), State::Fresh | State::Done) {
            // Only reachable if the driver itself unwound. The fiber's frames
            // may borrow data the caller is about to drop (a scoped thread
            // they spawned may still read it), so nothing may continue.
            eprintln!("fatal: a fiber driver unwound while a fiber was live");
            std::process::abort();
        }
        if let Some(stack) = self.stack.take() {
            // Past thread-local destruction the stack is simply unmapped.
            let _ = SPARE.try_with(|s| s.borrow_mut().push(stack));
        }
    }
}

struct Driver<'a> {
    fibers: Vec<Fiber<'a>>,
    /// The driver's stack pointer while a fiber runs.
    sp: Cell<*mut u8>,
    running: Cell<usize>,
    /// The grant the last fiber to stop named.
    next: Cell<Option<usize>>,
    /// Once set, every resume unwinds its fiber with this payload.
    cancel: RefCell<Option<String>>,
}

/// The driver of the fiber running this code, if any.
fn driver<'d>() -> Option<&'d Driver<'d>> {
    let d = DRIVER.with(Cell::get);
    // SAFETY: `DRIVER` is non-null only while `Driver::drive` runs on this
    // thread, and fiber code runs only inside it, so the driver outlives
    // every use of the reference a fiber makes.
    (!d.is_null()).then(|| unsafe { &*d.cast::<Driver<'d>>() })
}

/// Restores the enclosing driver (for nested runs) even if driving panics.
struct Installed(*const Driver<'static>);

impl Drop for Installed {
    fn drop(&mut self) {
        DRIVER.with(|d| d.set(self.0));
    }
}

impl<'a> Driver<'a> {
    fn new(bodies: Vec<Box<dyn FnOnce() + 'a>>) -> Driver<'a> {
        let fibers = bodies
            .into_iter()
            .map(|body| {
                let stack = SPARE.with(|s| s.borrow_mut().pop()).unwrap_or_else(Stack::map);
                Fiber {
                    sp: Cell::new(stack.entry_frame()),
                    state: Cell::new(State::Fresh),
                    body: Cell::new(Some(body)),
                    panic: Cell::new(None),
                    hooks: Cell::new(None),
                    stack: Some(stack),
                }
            })
            .collect();
        Driver {
            fibers,
            sp: Cell::new(std::ptr::null_mut()),
            running: Cell::new(0),
            next: Cell::new(None),
            cancel: RefCell::new(None),
        }
    }

    fn drive(&self) {
        let erased = (self as *const Driver<'a>).cast::<Driver<'static>>();
        let _restore = Installed(DRIVER.with(|d| d.replace(erased)));
        while let Some(i) = self.pick() {
            self.resume(i);
        }
    }

    /// The fiber to resume next: the one named by the last grant, else the
    /// first that has not started, else (no fiber holds the grant) a
    /// parked one, which unwinds. `None` once every fiber is done.
    fn pick(&self) -> Option<usize> {
        let state = |i: usize| self.fibers[i].state.get();
        let resumable = |i: &usize| {
            self.fibers
                .get(*i)
                .is_some_and(|f| matches!(f.state.get(), State::Fresh | State::Parked))
        };
        if let Some(i) = self.next.take().filter(resumable) {
            return Some(i);
        }
        let all = 0..self.fibers.len();
        if let Some(i) = all.clone().find(|&i| state(i) == State::Fresh) {
            return Some(i);
        }
        let parked: Vec<usize> = all.filter(|&i| state(i) == State::Parked).collect();
        let first = *parked.first()?;
        self.cancel.borrow_mut().get_or_insert_with(|| {
            format!("fiber driver: no fiber holds the grant; fibers {parked:?} are parked")
        });
        Some(first)
    }

    fn resume(&self, i: usize) {
        let fiber = &self.fibers[i];
        self.running.set(i);
        let mut hooks = fiber.hooks.take();
        coop::swap(&mut hooks);
        fiber.state.set(State::Running);
        // SAFETY: the fiber's saved stack pointer is its entry frame or the
        // state its last `suspend` saved, on a stack no other code uses;
        // the driver's own state is saved to `self.sp` for the fiber's
        // switch back.
        unsafe { htm_fiber_switch(self.sp.as_ptr(), fiber.sp.get()) };
        coop::swap(&mut hooks);
        fiber.hooks.set(hooks);
        if fiber.state.get() == State::Running {
            fiber.state.set(State::Parked);
        }
    }
}

/// The base of every fiber: runs its body, records a panic, and switches
/// back to the driver for good.
extern "C" fn fiber_main() -> ! {
    let d = driver().expect("a fiber runs under its driver");
    let fiber = &d.fibers[d.running.get()];
    if let Some(body) = fiber.body.take() {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            fiber.panic.set(Some(payload));
        }
    }
    fiber.state.set(State::Done);
    // SAFETY: switches to the driver's saved state; a Done fiber is never
    // resumed, so nothing returns here.
    unsafe { htm_fiber_switch(fiber.sp.as_ptr(), d.sp.get()) };
    std::process::abort()
}

/// Runs `bodies` as fibers on the calling thread and returns how each one
/// ended, in order. Body `i` runs as fiber `i`. The driver resumes the
/// fiber the last one to stop named (see `suspend` and `hand_over`),
/// or else starts the next unstarted one in index order. Returns once
/// every fiber finished.
pub fn run<'a, T>(bodies: Vec<Box<dyn FnOnce() -> T + 'a>>) -> Vec<std::thread::Result<T>> {
    let outs: Vec<Cell<Option<T>>> = bodies.iter().map(|_| Cell::new(None)).collect();
    let outs_ref = &outs;
    let erased = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| Box::new(move || outs_ref[i].set(Some(body()))) as Box<dyn FnOnce() + '_>)
        .collect();
    let driver = Driver::new(erased);
    driver.drive();
    let panics: Vec<_> = driver.fibers.iter().map(|f| f.panic.take()).collect();
    drop(driver);
    panics
        .into_iter()
        .zip(outs)
        .map(|(panic, out)| match panic {
            Some(payload) => Err(payload),
            None => Ok(out.into_inner().expect("a fiber that did not panic returned its value")),
        })
        .collect()
}

/// The index of the fiber running this code, or `None` on a plain thread.
pub(crate) fn current() -> Option<usize> {
    driver().map(|d| d.running.get())
}

/// Switches from the running fiber to its driver, which resumes fiber
/// `next` (or, with `None`, one that has not started yet). Returns when
/// the driver resumes this fiber again. A no-op off fibers.
///
/// # Panics
///
/// Unwinds with the diagnostic once `unwind_all` was called or the
/// driver found no fiber holding the grant. Aborts the process if called
/// while the fiber is unwinding.
pub(crate) fn suspend(next: Option<usize>) {
    let Some(d) = driver() else { return };
    if std::thread::panicking() {
        eprintln!("fatal: a fiber tried to switch while unwinding");
        std::process::abort();
    }
    unwind_if_cancelled(d);
    d.next.set(next);
    let fiber = &d.fibers[d.running.get()];
    // SAFETY: saves this fiber's state to its own slot and switches to the
    // driver's, saved when it resumed this fiber.
    unsafe { htm_fiber_switch(fiber.sp.as_ptr(), d.sp.get()) };
    unwind_if_cancelled(d);
}

fn unwind_if_cancelled(d: &Driver<'_>) {
    let cancel = d.cancel.borrow().clone();
    if let Some(diagnostic) = cancel {
        std::panic::panic_any(diagnostic);
    }
}

/// Records fiber `next` as the one the driver resumes once the running
/// fiber stops, without switching (a finishing fiber calls this, possibly
/// while unwinding). A no-op off fibers.
pub(crate) fn hand_over(next: usize) {
    if let Some(d) = driver() {
        d.next.set(Some(next));
    }
}

/// Makes every parked fiber, once resumed, and every fiber that suspends
/// later, panic with `diagnostic` (a scheduler's verdict). Does not
/// switch. A no-op off fibers.
pub(crate) fn unwind_all(diagnostic: String) {
    if let Some(d) = driver() {
        d.cancel.borrow_mut().get_or_insert(diagnostic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_core::coop::CoopPoint;

    type Body<'a> = Box<dyn FnOnce() + 'a>;

    #[test]
    fn fibers_run_in_the_order_the_driver_is_told() {
        let log = RefCell::new(Vec::new());
        let log = &log;
        // Each fiber logs, then names the fiber two places on (suspending,
        // or on its last round, finishing).
        let bodies: Vec<Body<'_>> = (0..3)
            .map(|i| {
                Box::new(move || {
                    for round in 0..3 {
                        log.borrow_mut().push((i, round));
                        assert_eq!(current(), Some(i));
                        if round < 2 {
                            suspend(Some((i + 2) % 3));
                        } else {
                            hand_over((i + 2) % 3);
                        }
                    }
                }) as Body<'_>
            })
            .collect();
        let ends = run(bodies);
        assert!(ends.iter().all(Result::is_ok));
        let order: Vec<usize> = log.borrow().iter().map(|&(i, _)| i).collect();
        // 0 starts and names 2, which starts before 1 because it was
        // named; from there every round runs 0 -> 2 -> 1.
        assert_eq!(order, vec![0, 2, 1, 0, 2, 1, 0, 2, 1]);
        assert_eq!(current(), None, "off fibers after the run");
    }

    #[test]
    fn a_panic_is_caught_at_the_fiber_base_and_returned() {
        let bodies: Vec<Box<dyn FnOnce() -> u32>> = vec![
            Box::new(|| 7),
            Box::new(|| std::panic::panic_any(String::from("fiber 1 died"))),
            Box::new(|| 9),
        ];
        let ends = run(bodies);
        assert_eq!(*ends[0].as_ref().unwrap(), 7);
        let payload = ends[1].as_ref().unwrap_err().downcast_ref::<String>();
        assert_eq!(payload.map(String::as_str), Some("fiber 1 died"));
        assert_eq!(*ends[2].as_ref().unwrap(), 9);
    }

    #[test]
    fn a_backtrace_inside_a_fiber_formats() {
        let bodies: Vec<Box<dyn FnOnce() -> String>> =
            vec![Box::new(|| format!("{}", std::backtrace::Backtrace::force_capture()))];
        let text = run(bodies).pop().unwrap().unwrap();
        assert!(text.contains("fiber_main"), "the walk reaches the fiber's base:\n{text}");
    }

    struct Tag(u64, RefCell<Vec<u64>>);

    impl CoopHooks for Tag {
        fn pause(&self, _: CoopPoint) {}
        fn access(&self, line: u64, _: bool) {
            self.1.borrow_mut().push(self.0 * 100 + line);
        }
    }

    #[test]
    fn each_fiber_sees_its_own_coop_hooks() {
        let tags: Vec<Rc<Tag>> = (0..2).map(|t| Rc::new(Tag(t, RefCell::default()))).collect();
        let tags = &tags;
        let bodies: Vec<Body<'_>> = (0..2usize)
            .map(|i| {
                Box::new(move || {
                    assert!(!coop::enabled(), "a fresh fiber has no hooks");
                    let _g = coop::install(Rc::clone(&tags[i]) as Rc<dyn CoopHooks>);
                    for line in 0..3 {
                        coop::access(line, false);
                        if line < 2 {
                            suspend(Some(1 - i));
                        }
                    }
                    hand_over(1 - i);
                }) as Body<'_>
            })
            .collect();
        assert!(run(bodies).iter().all(Result::is_ok));
        assert_eq!(*tags[0].1.borrow(), vec![0, 1, 2]);
        assert_eq!(*tags[1].1.borrow(), vec![100, 101, 102]);
        assert!(!coop::enabled(), "the driver's thread keeps its own (no) hooks");
    }

    #[test]
    fn stacks_are_reused_across_runs() {
        let frames = || {
            let bodies: Vec<Box<dyn FnOnce() -> usize>> = (0..3)
                .map(|_| {
                    Box::new(|| {
                        let local = 0u8;
                        std::hint::black_box(&local) as *const u8 as usize
                    }) as Box<dyn FnOnce() -> usize>
                })
                .collect();
            let mut at: Vec<usize> = run(bodies).into_iter().map(Result::unwrap).collect();
            at.sort_unstable();
            at
        };
        let first = frames();
        assert_eq!(frames(), first, "the second run ran on the first run's stacks");
    }

    #[test]
    fn no_fiber_holding_the_grant_unwinds_the_parked_ones() {
        let bodies: Vec<Body<'_>> =
            (0..2).map(|_| Box::new(|| suspend(None)) as Body<'_>).collect();
        for end in run(bodies) {
            let payload = end.unwrap_err();
            let msg = payload.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains("no fiber holds the grant; fibers [0, 1]"), "{msg}");
        }
    }

    /// Recurses with a 4 KiB frame until the stack runs out.
    fn deep(n: u64) -> u64 {
        let pad = std::hint::black_box([n as u8; 4096]);
        if std::hint::black_box(n) == u64::MAX {
            return pad[0] as u64;
        }
        deep(n + 1) + pad[n as usize % 4096] as u64
    }

    #[test]
    fn a_stack_overflow_dies_on_the_guard_page() {
        const CHILD: &str = "HTM_FIBER_OVERFLOW_CHILD";
        if std::env::var_os(CHILD).is_some() {
            let bodies: Vec<Box<dyn FnOnce() -> u64>> = vec![Box::new(|| deep(0))];
            let _ = run(bodies);
            return;
        }
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "fiber::tests::a_stack_overflow_dies_on_the_guard_page"])
            .args(["--test-threads", "1", "--nocapture"])
            .env(CHILD, "1")
            .output()
            .expect("re-run the test binary");
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(
            out.status.signal(),
            Some(11),
            "the child must die of SIGSEGV: {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
