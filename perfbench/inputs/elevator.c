
int:16 call_floor;
int:16 queue_depth;
int:16 blocked_count;
int:16 position0;
int:16 position1;
int:16 direction0;
int:16 direction1;
int:16 remaining0;
int:16 remaining1;

void InitBank() {
  call_floor = 0;
  queue_depth = 0;
  blocked_count = 0;
  position0 = 0;
  position1 = 0;
  SetFalse(BUSY0);
  SetFalse(BUSY1);
}

void QueueCall() {
  call_floor = CallFloor;
  queue_depth = queue_depth + 1;
  if (Test(BUSY0)) {
    if (!Test(BUSY1)) { Raise(DISPATCH1); }
  } else {
    Raise(DISPATCH0);
  }
}

void ClearCall() {
  queue_depth = queue_depth - 1;
}

void Plan0() {
  int:16 distance;
  distance = call_floor - position0;
  if (distance < 0) {
    direction0 = 0;
    distance = -distance;
  } else {
    direction0 = 1;
  }
  remaining0 = distance;
  SetTrue(BUSY0);
  Motor0 = 1;
}

void Track0() {
  if (direction0 == 1) { position0 = position0 + 1; }
  else { position0 = position0 - 1; }
  remaining0 = remaining0 - 1;
  if (remaining0 == 0) { Raise(AT_FLOOR0); }
}

void StopCab0() {
  Motor0 = 0;
  Door0 = 1;
}

void HoldDoor0() {
  Door0 = 2;
}

void DriveDoor0() {
  Door0 = 3;
}

void Reopen0() {
  Door0 = 1;
  blocked_count = blocked_count + 1;
}

void ParkCab0() {
  Door0 = 0;
  SetFalse(BUSY0);
}

void Plan1() {
  int:16 distance;
  distance = call_floor - position1;
  if (distance < 0) {
    direction1 = 0;
    distance = -distance;
  } else {
    direction1 = 1;
  }
  remaining1 = distance;
  SetTrue(BUSY1);
  Motor1 = 1;
}

void Track1() {
  if (direction1 == 1) { position1 = position1 + 1; }
  else { position1 = position1 - 1; }
  remaining1 = remaining1 - 1;
  if (remaining1 == 0) { Raise(AT_FLOOR1); }
}

void StopCab1() {
  Motor1 = 0;
  Door1 = 1;
}

void HoldDoor1() {
  Door1 = 2;
}

void DriveDoor1() {
  Door1 = 3;
}

void Reopen1() {
  Door1 = 1;
  blocked_count = blocked_count + 1;
}

void ParkCab1() {
  Door1 = 0;
  SetFalse(BUSY1);
}
