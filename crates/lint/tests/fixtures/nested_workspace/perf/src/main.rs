//! A nested workspace: its violations are out of scope.

use std::sync::Mutex;

fn main() {
    let m = Mutex::new(std::time::Instant::now());
    let _g = m.lock().unwrap();
}
